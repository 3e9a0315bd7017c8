(* Codec for the migsyn-serve/1 line protocol.  See protocol.mli and
   docs/PROTOCOL.md. *)

module Json = Obs.Json

let schema = "migsyn-serve/1"

type circuit =
  | Inline of { format : string; source : string }
  | File of string

type synth = {
  circuit : circuit;
  flows : string list;
  algorithm : string option;
  effort : int option;
  jobs : int option;
  cost : string option;
  arch : string option;
  realization : string;
  verify : bool;
}

type op = Synth of synth | Metrics | Ping | Shutdown

type request = { id : string option; op : op }

type error_code =
  | Parse_error
  | Bad_schema
  | Bad_request
  | Oversized
  | Unsupported_op
  | Synthesis_failed
  | Verification_failed
  | Io_error

let code_name = function
  | Parse_error -> "parse_error"
  | Bad_schema -> "bad_schema"
  | Bad_request -> "bad_request"
  | Oversized -> "oversized"
  | Unsupported_op -> "unsupported_op"
  | Synthesis_failed -> "synthesis_failed"
  | Verification_failed -> "verification_failed"
  | Io_error -> "io_error"

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of error_code * string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad (Bad_request, msg))) fmt

let opt_string name json =
  match Json.member name json with
  | Json.Null -> None
  | Json.String s -> Some s
  | _ -> bad "\"%s\" must be a string" name

let opt_int name json =
  match Json.member name json with
  | Json.Null -> None
  | Json.Int n -> Some n
  | _ -> bad "\"%s\" must be an integer" name

let opt_bool name json =
  match Json.member name json with
  | Json.Null -> None
  | Json.Bool b -> Some b
  | _ -> bad "\"%s\" must be a boolean" name

let decode_circuit json =
  match Json.member "circuit" json with
  | Json.Null -> bad "synth request is missing the \"circuit\" member"
  | Json.Assoc _ as c -> (
      match (opt_string "path" c, opt_string "format" c, opt_string "source" c) with
      | Some path, None, None -> File path
      | Some _, _, _ ->
          bad "\"circuit\" must carry either \"path\" or \"format\"+\"source\", not both"
      | None, Some format, Some source ->
          if not (List.mem format Io.Netlist.formats) then
            bad "unknown circuit format %S (expected %s)" format
              (String.concat ", " Io.Netlist.formats);
          Inline { format; source }
      | None, _, _ ->
          bad "inline \"circuit\" needs both \"format\" and \"source\"")
  | _ -> bad "\"circuit\" must be an object"

let decode_flows json =
  match Json.member "flow" json with
  | Json.Null -> []
  | Json.String s -> [ s ]
  | Json.List elems ->
      if elems = [] then bad "\"flow\" must not be an empty list";
      List.map
        (function
          | Json.String s -> s
          | _ -> bad "\"flow\" list elements must be strings")
        elems
  | _ -> bad "\"flow\" must be a string or a list of strings"

let decode_synth json =
  let circuit = decode_circuit json in
  let flows = decode_flows json in
  let algorithm = opt_string "algorithm" json in
  if flows <> [] && algorithm <> None then
    bad "\"flow\" and \"algorithm\" are mutually exclusive";
  let effort = opt_int "effort" json in
  (match effort with
  | Some e when e < 1 -> bad "\"effort\" must be at least 1 (got %d)" e
  | _ -> ());
  let jobs = opt_int "jobs" json in
  (match jobs with
  | Some j when j < 1 -> bad "\"jobs\" must be at least 1 (got %d)" j
  | _ -> ());
  let realization =
    match opt_string "realization" json with
    | None -> "maj"
    | Some ("imp" | "maj") as r -> Option.get r
    | Some other -> bad "unknown realization %S (expected imp or maj)" other
  in
  Synth
    {
      circuit;
      flows;
      algorithm;
      effort;
      jobs;
      cost = opt_string "cost" json;
      arch = opt_string "arch" json;
      realization;
      verify = Option.value (opt_bool "verify" json) ~default:true;
    }

let decode_request line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error (Parse_error, msg)
  | Json.Assoc _ as json -> (
      try
        (match Json.member "schema" json with
        | Json.String s when s = schema -> ()
        | Json.String s ->
            raise
              (Bad
                 ( Bad_schema,
                   Printf.sprintf "unknown schema %S (this server speaks %s)" s
                     schema ))
        | _ ->
            raise
              (Bad
                 ( Bad_schema,
                   Printf.sprintf "missing \"schema\" member (expected %S)" schema
                 )));
        let id =
          match Json.member "id" json with
          | Json.Null -> None
          | Json.String s -> Some s
          | Json.Int n -> Some (string_of_int n)
          | _ -> bad "\"id\" must be a string or an integer"
        in
        let op =
          match Json.member "op" json with
          | Json.Null | Json.String "synth" -> decode_synth json
          | Json.String "metrics" -> Metrics
          | Json.String "ping" -> Ping
          | Json.String "shutdown" -> Shutdown
          | Json.String other ->
              raise
                (Bad
                   ( Unsupported_op,
                     Printf.sprintf
                       "unknown op %S (expected synth, metrics, ping or shutdown)"
                       other ))
          | _ -> bad "\"op\" must be a string"
        in
        Ok { id; op }
      with Bad (code, msg) -> Error (code, msg))
  | _ -> Error (Parse_error, "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let encode_request { id; op } =
  let base = [ ("schema", Json.String schema) ] in
  let id = match id with Some i -> [ ("id", Json.String i) ] | None -> [] in
  let rest =
    match op with
    | Metrics -> [ ("op", Json.String "metrics") ]
    | Ping -> [ ("op", Json.String "ping") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
    | Synth s ->
        let circuit =
          match s.circuit with
          | File path -> Json.Assoc [ ("path", Json.String path) ]
          | Inline { format; source } ->
              Json.Assoc
                [ ("format", Json.String format); ("source", Json.String source) ]
        in
        let opt name = function
          | Some v -> [ (name, Json.String v) ]
          | None -> []
        in
        let opt_i name = function
          | Some v -> [ (name, Json.Int v) ]
          | None -> []
        in
        [ ("op", Json.String "synth"); ("circuit", circuit) ]
        @ (match s.flows with
          | [] -> []
          | [ one ] -> [ ("flow", Json.String one) ]
          | many -> [ ("flow", Json.List (List.map (fun f -> Json.String f) many)) ])
        @ opt "algorithm" s.algorithm @ opt_i "effort" s.effort
        @ opt_i "jobs" s.jobs @ opt "cost" s.cost @ opt "arch" s.arch
        @ [ ("realization", Json.String s.realization) ]
        @ if s.verify then [] else [ ("verify", Json.Bool false) ]
  in
  Json.to_string (Json.Assoc (base @ id @ rest))

let id_member = function
  | Some i -> [ ("id", Json.String i) ]
  | None -> []

let ok_response ~id ~cache ~seconds ~result =
  Json.Assoc
    ([ ("schema", Json.String schema) ]
    @ id_member id
    @ [
        ("status", Json.String "ok");
        ("cache", Json.String cache);
        ("seconds", Json.Float seconds);
        ("result", result);
      ])

let error_response ~id ~code msg =
  Json.Assoc
    ([ ("schema", Json.String schema) ]
    @ id_member id
    @ [
        ("status", Json.String "error");
        ( "error",
          Json.Assoc
            [ ("code", Json.String (code_name code)); ("message", Json.String msg) ]
        );
      ])

let response_line json = Json.to_string json ^ "\n"

let strip_volatile = function
  | Json.Assoc kvs ->
      Json.Assoc
        (List.filter (fun (k, _) -> k <> "cache" && k <> "seconds") kvs)
  | other -> other
