exception Parse_error of int * string

let expected = ".blif, .bench, .pla, .aag or .aig"

let readers = function
  | "blif" -> Some (Blif.parse_string, Blif.parse_file)
  | "bench" -> Some (Bench_format.parse_string, Bench_format.parse_file)
  | "pla" -> Some (Pla.parse_string, Pla.parse_file)
  | "aag" -> Some (Aiger.parse_string, Aiger.parse_file)
  | "aig" -> Some (Aiger.parse_binary_string, Aiger.parse_binary_file)
  | _ -> None

let unify parse input =
  try parse input with
  | Blif.Parse_error (line, msg)
  | Bench_format.Parse_error (line, msg)
  | Pla.Parse_error (line, msg)
  | Aiger.Parse_error (line, msg) ->
      raise (Parse_error (line, msg))

let parse_string ~format source =
  Option.map (fun (of_string, _) -> unify of_string source) (readers format)

let parse_file path =
  let ext = Filename.extension path in
  let format = if ext = "" then "" else String.sub ext 1 (String.length ext - 1) in
  Option.map (fun (_, of_file) -> unify of_file path) (readers format)
