type literal = Pos | Neg | DC

(* Two bitsets: [care] marks bound variables, [value] their polarity. *)
type t = { n : int; care : Bitvec.t; value : Bitvec.t }

let create n = { n; care = Bitvec.create n; value = Bitvec.create n }

let num_vars t = t.n

let get t i =
  if not (Bitvec.get t.care i) then DC
  else if Bitvec.get t.value i then Pos
  else Neg

let set t i lit =
  let care = Bitvec.copy t.care and value = Bitvec.copy t.value in
  (match lit with
  | DC ->
      Bitvec.set care i false;
      Bitvec.set value i false
  | Pos ->
      Bitvec.set care i true;
      Bitvec.set value i true
  | Neg ->
      Bitvec.set care i true;
      Bitvec.set value i false);
  { t with care; value }

let of_substring s pos n =
  let t = create n in
  for i = 0 to n - 1 do
    match s.[pos + i] with
    | '1' ->
        Bitvec.set t.care i true;
        Bitvec.set t.value i true
    | '0' -> Bitvec.set t.care i true
    | '-' | '~' | '2' -> ()
    | _ -> invalid_arg "Cube.of_string: expected '0', '1' or '-'"
  done;
  t

let of_string s = of_substring s 0 (String.length s)

let to_string t =
  String.init t.n (fun i ->
      match get t i with Pos -> '1' | Neg -> '0' | DC -> '-')

let eval t a =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    (match get t i with
    | DC -> ()
    | Pos -> if not a.(i) then ok := false
    | Neg -> if a.(i) then ok := false)
  done;
  !ok

let contains a b =
  (* a ⊇ b: every bound literal of a must be bound identically in b. *)
  assert (a.n = b.n);
  let ok = ref true in
  for i = 0 to a.n - 1 do
    match (get a i, get b i) with
    | DC, _ -> ()
    | Pos, Pos | Neg, Neg -> ()
    | _ -> ok := false
  done;
  !ok

let intersects a b =
  assert (a.n = b.n);
  let ok = ref true in
  for i = 0 to a.n - 1 do
    match (get a i, get b i) with
    | Pos, Neg | Neg, Pos -> ok := false
    | _ -> ()
  done;
  !ok

let literals t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    match get t i with
    | Pos -> acc := (i, true) :: !acc
    | Neg -> acc := (i, false) :: !acc
    | DC -> ()
  done;
  !acc

let num_literals t = Bitvec.popcount t.care

let to_truth_table t =
  let tt = ref (Truth_table.const t.n true) in
  List.iter
    (fun (i, pos) ->
      let v = Truth_table.var t.n i in
      let v = if pos then v else Truth_table.bnot v in
      tt := Truth_table.band !tt v)
    (literals t);
  !tt

let compare a b = Stdlib.compare (to_string a) (to_string b)
let equal a b = compare a b = 0
let pp ppf t = Format.pp_print_string ppf (to_string t)
