open Logic

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* The count after [.i]/[.o]: a non-negative integer, fixed once the first
   cube has been read against it. *)
let set_count n directive ~cubes r v =
  match int_of_string_opt v with
  | Some k when k >= Sys.max_array_length -> fail n (directive ^ " count too large")
  | Some k when k >= 0 ->
      if cubes <> [] && k <> !r then fail n (directive ^ " changes after the first cube");
      r := k
  | _ -> fail n (Printf.sprintf "%s needs a non-negative count, got %S" directive v)

(* Every malformed line is a [Parse_error] at that line: the planes are
   checked here, where the line number is known, so building the network
   afterwards cannot fail. *)
let parse_string text =
  let lines = String.split_on_char '\n' text in
  let ni = ref (-1) and no = ref (-1) in
  let ilb = ref None and ob = ref None in
  let cubes = ref [] in
  List.iteri
    (fun i raw ->
      let n = i + 1 in
      let line =
        match String.index_opt raw '#' with Some j -> String.sub raw 0 j | None -> raw
      in
      let line = String.trim line in
      if line <> "" then begin
        let toks = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
        let output_plane plane =
          String.iter
            (function
              | '0' | '1' | '-' | '~' | '2' | '3' | '4' -> ()
              | c -> fail n (Printf.sprintf "bad output literal %c" c))
            plane
        in
        match toks with
        | ".i" :: v :: _ -> set_count n ".i" ~cubes:!cubes ni v
        | ".o" :: v :: _ -> set_count n ".o" ~cubes:!cubes no v
        | ".p" :: _ | ".type" :: _ | ".e" :: _ | ".end" :: _ -> ()
        | ".ilb" :: names ->
            let seen = Hashtbl.create 16 in
            List.iter
              (fun name ->
                if Hashtbl.mem seen name then fail n ("duplicate input " ^ name);
                Hashtbl.replace seen name ())
              names;
            ilb := Some names
        | ".ob" :: names -> ob := Some names
        | [ input_plane; plane ] when input_plane.[0] <> '.' ->
            if !ni < 0 || !no < 0 then fail n "cube before .i/.o";
            if String.length input_plane <> !ni then fail n "input plane width";
            if String.length plane <> !no then fail n "output plane width";
            String.iter
              (fun c ->
                if not (String.contains "01-~2" c) then
                  fail n (Printf.sprintf "bad cube character %C" c))
              input_plane;
            let cube = Cube.of_string input_plane in
            output_plane plane;
            cubes := (cube, plane) :: !cubes
        | [ single ] when !ni = 0 && single.[0] <> '.' ->
            if !no < 0 then fail n "cube before .i/.o";
            if String.length single <> !no then fail n "output plane width";
            output_plane single;
            cubes := (Cube.create 0, single) :: !cubes
        | _ -> fail n ("malformed PLA line: " ^ line)
      end)
    lines;
  let ni = if !ni < 0 then fail 0 "missing .i" else !ni in
  let no = if !no < 0 then fail 0 "missing .o" else !no in
  let net = Network.create () in
  let input_names =
    match !ilb with
    | Some names when List.length names = ni -> Array.of_list names
    | _ -> Array.init ni (Printf.sprintf "x%d")
  in
  let output_names =
    match !ob with
    | Some names when List.length names = no -> Array.of_list names
    | _ -> Array.init no (Printf.sprintf "y%d")
  in
  let input_ids = Array.map (Network.add_input net) input_names in
  let per_output = Array.make no [] in
  List.iter
    (fun (cube, output_plane) ->
      String.iteri
        (fun o ch ->
          match ch with
          | '1' | '4' -> per_output.(o) <- cube :: per_output.(o)
          | _ -> ())
        output_plane)
    (List.rev !cubes);
  Array.iteri
    (fun o cubes ->
      let sop = Sop.of_cubes ni (List.rev cubes) in
      let id = Network.gate net (Network.Table sop) input_ids in
      Network.add_output net output_names.(o) id)
    per_output;
  net

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let write_string net =
  let ni = Network.num_inputs net in
  if ni > Truth_table.max_vars then invalid_arg "Pla.write_string: too many inputs";
  let tts = Network.truth_tables net in
  let sops = Array.map Sop.of_truth_table tts in
  let no = Array.length sops in
  (* Collect the union of cubes; output plane marks which outputs each cube
     belongs to (no cube sharing beyond exact equality). *)
  let all_cubes = Hashtbl.create 97 in
  let order = ref [] in
  Array.iteri
    (fun o sop ->
      List.iter
        (fun cube ->
          let key = Cube.to_string cube in
          (match Hashtbl.find_opt all_cubes key with
          | None ->
              Hashtbl.replace all_cubes key (Array.make no false);
              order := key :: !order
          | Some _ -> ());
          (Hashtbl.find all_cubes key).(o) <- true)
        (Sop.cubes sop))
    sops;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" ni no);
  Buffer.add_string buf ".ilb";
  Array.iter (fun n -> Buffer.add_string buf (" " ^ n)) (Network.input_names net);
  Buffer.add_string buf "\n.ob";
  List.iter (fun (n, _) -> Buffer.add_string buf (" " ^ n)) (Network.outputs net);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (List.length !order));
  List.iter
    (fun key ->
      let marks = Hashtbl.find all_cubes key in
      Buffer.add_string buf key;
      Buffer.add_char buf ' ';
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) marks;
      Buffer.add_char buf '\n')
    (List.rev !order);
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  output_string oc (write_string net);
  close_out oc

let of_sops ?input_names ?output_names sops =
  let ni = if Array.length sops = 0 then 0 else Sop.num_vars sops.(0) in
  let net = Network.create () in
  let input_names =
    match input_names with Some a -> a | None -> Array.init ni (Printf.sprintf "x%d")
  in
  let output_names =
    match output_names with
    | Some a -> a
    | None -> Array.init (Array.length sops) (Printf.sprintf "y%d")
  in
  let input_ids = Array.map (Network.add_input net) input_names in
  Array.iteri
    (fun o sop ->
      let id = Network.gate net (Network.Table sop) input_ids in
      Network.add_output net output_names.(o) id)
    sops;
  net
