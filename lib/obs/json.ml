type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let hex_digit = "0123456789abcdef"

external get64 : string -> int -> int64 = "%caml_string_get64u"

(* Whether none of the eight bytes of [w] is a control byte (below 0x20), a
   quote or a backslash: the bytes the printer escapes.  Each term is the
   word-at-a-time "some byte is below k" test, (w - k*ones) & ~w & highs,
   with k = 0x20 directly and k = 1 on [w] xor the byte; it can misreport
   bytes above a match, never whether one exists.  Byte order does not
   matter. *)
let[@inline] plain_word w =
  let open Int64 in
  let ones = 0x0101010101010101L and highs = 0x8080808080808080L in
  let control = logand (logand (sub w 0x2020202020202020L) (logxor w (-1L))) highs in
  let q = logxor w 0x2222222222222222L in
  let quote = logand (logand (sub q ones) (logxor q (-1L))) highs in
  let b = logxor w 0x5c5c5c5c5c5c5c5cL in
  let backslash = logand (logand (sub b ones) (logxor b (-1L))) highs in
  logor control (logor quote backslash) = 0L

let[@inline] plain_byte c = not (c = '"' || c = '\\' || Char.code c < 0x20)

(* The first index from [i] of a byte [escape] rewrites, or [len]; eight
   bytes at a time. *)
let plain_run s i len =
  let rec words i = if i + 8 <= len && plain_word (get64 s i) then words (i + 8) else bytes i
  and bytes i = if i < len && plain_byte (String.unsafe_get s i) then bytes (i + 1) else i in
  words i

(* Runs of bytes that need no escape are copied whole; only ['"'], ['\\']
   and the control bytes below 0x20 are rewritten. *)
let escape buf s =
  Buffer.add_char buf '"';
  let len = String.length s in
  let rec copy start =
    let i = plain_run s start len in
    if i > start then Buffer.add_substring buf s start (i - start);
    if i < len then begin
      let c = String.unsafe_get s i in
      Buffer.add_char buf '\\';
      (match c with
      | '"' | '\\' -> Buffer.add_char buf c
      | '\n' -> Buffer.add_char buf 'n'
      | '\r' -> Buffer.add_char buf 'r'
      | '\t' -> Buffer.add_char buf 't'
      | c ->
          Buffer.add_string buf "u00";
          Buffer.add_char buf hex_digit.[Char.code c lsr 4];
          Buffer.add_char buf hex_digit.[Char.code c land 0xf]);
      copy (i + 1)
    end
  in
  copy 0;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* shortest representation that still round-trips through float_of_string *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* keep a float marker so the value parses back as Float, not Int *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let to_buffer ?(pretty = false) buf json =
  let indent n = if pretty then Buffer.add_string buf ("\n" ^ String.make (2 * n) ' ') in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List elems ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i e ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            emit (depth + 1) e)
          elems;
        indent depth;
        Buffer.add_char buf ']'
    | Assoc [] -> Buffer.add_string buf "{}"
    | Assoc fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape buf k;
            Buffer.add_char buf ':';
            if pretty then Buffer.add_char buf ' ';
            emit (depth + 1) v)
          fields;
        indent depth;
        Buffer.add_char buf '}'
  in
  emit 0 json

let to_string ?pretty json =
  let buf = Buffer.create 1024 in
  to_buffer ?pretty buf json;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let of_string text =
  let pos = ref 0 in
  let len = String.length text in
  let fail msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" !pos msg)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub text !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail ("expected " ^ word)
  in
  (* Advance [pos] over bytes that are neither a quote nor a backslash,
     eight at a time while no control byte is among them either. *)
  let skip_plain () =
    let rec bytes i =
      if i < len && match String.unsafe_get text i with '"' | '\\' -> false | _ -> true
      then bytes (i + 1)
      else i
    in
    pos := bytes (plain_run text !pos len)
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if !pos < len && text.[!pos] = '"' then begin
      (* No escape: the string is one run of the input. *)
      advance ();
      String.sub text start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (max 16 (2 * (!pos - start))) in
      Buffer.add_substring buf text start (!pos - start);
      (* [pos] is at a quote, at a backslash or at the end. *)
      let rec loop () =
        if !pos >= len then fail "unterminated string";
        let c = text.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else begin
          if !pos >= len then fail "unterminated escape";
          let e = text.[!pos] in
          advance ();
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > len then fail "truncated \\u escape";
              let hex = String.sub text !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
              in
              (* Encode the code point as UTF-8 (no surrogate-pair
                 handling; the printer never emits them). *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> fail "unknown escape");
          let run = !pos in
          skip_plain ();
          Buffer.add_substring buf text run (!pos - run);
          loop ()
        end
      in
      loop ()
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail ("bad number " ^ s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Assoc []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Assoc (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Assoc fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function List l -> l | _ -> []

let to_float = function Int i -> float_of_int i | Float f -> f | _ -> 0.0
