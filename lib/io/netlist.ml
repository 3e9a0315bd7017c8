exception Parse_error = Netlist_scan.Parse_error

let readers = function
  | "blif" -> Some (Blif.parse_string, Blif.parse_file)
  | "bench" -> Some (Bench_format.parse_string, Bench_format.parse_file)
  | "pla" -> Some (Pla.parse_string, Pla.parse_file)
  | "aag" -> Some (Aiger.parse_string, Aiger.parse_file)
  | "aig" -> Some (Aiger.parse_binary_string, Aiger.parse_binary_file)
  | _ -> None

let formats = [ "blif"; "bench"; "pla"; "aag"; "aig" ]

let write_string ?model_name ~format net =
  match format with
  | "blif" -> Some (Blif.write_string ?model_name net)
  | "bench" -> Some (Bench_format.write_string net)
  | "aag" -> Some (Aiger.write_network net)
  | "aig" -> Some (Aiger.write_network_binary net)
  | _ -> None

let output_formats = [ "blif"; "bench"; "aag"; "aig" ]

(* [".a, .b or .c"] *)
let describe formats =
  let dotted = List.map (( ^ ) ".") formats in
  match List.rev dotted with
  | last :: (_ :: _ as rest) -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat "" dotted

let expected = describe formats
let expected_output = describe output_formats

let format_of_path path =
  let ext = Filename.extension path in
  if ext = "" then "" else String.sub ext 1 (String.length ext - 1)

let parse_string ~format source =
  Option.map (fun (of_string, _) -> of_string source) (readers format)

let parse_file path =
  Option.map (fun (_, of_file) -> of_file path) (readers (format_of_path path))
