type node = int

exception Limit_exceeded

type t = {
  nvars : int;
  max_nodes : int;
  mutable var_of : int array; (* level of node *)
  mutable low_of : node array;
  mutable high_of : node array;
  mutable n : int;
  unique : (int * node * node, node) Hashtbl.t;
  computed : (int * node * node * node, node) Hashtbl.t;
}

let bfalse = 0
let btrue = 1

let create ?(max_nodes = 2_000_000) nvars =
  let cap = 1024 in
  let t =
    {
      nvars;
      max_nodes;
      var_of = Array.make cap max_int;
      low_of = Array.make cap 0;
      high_of = Array.make cap 0;
      n = 2;
      unique = Hashtbl.create 4096;
      computed = Hashtbl.create 4096;
    }
  in
  (* Terminals sit below every variable. *)
  t.var_of.(bfalse) <- max_int;
  t.var_of.(btrue) <- max_int;
  t

let num_vars t = t.nvars

let grow t =
  if t.n >= Array.length t.var_of then begin
    let cap = 2 * Array.length t.var_of in
    let extend arr fill =
      let bigger = Array.make cap fill in
      Array.blit arr 0 bigger 0 t.n;
      bigger
    in
    t.var_of <- extend t.var_of max_int;
    t.low_of <- extend t.low_of 0;
    t.high_of <- extend t.high_of 0
  end

(* Hash-consed node creation with the ROBDD reduction rule. *)
let mk t v low high =
  if low = high then low
  else
    match Hashtbl.find_opt t.unique (v, low, high) with
    | Some n -> n
    | None ->
        if t.n >= t.max_nodes then raise Limit_exceeded;
        grow t;
        let id = t.n in
        t.var_of.(id) <- v;
        t.low_of.(id) <- low;
        t.high_of.(id) <- high;
        t.n <- t.n + 1;
        Hashtbl.replace t.unique (v, low, high) id;
        id

let var t i =
  if i < 0 || i >= t.nvars then invalid_arg "Bdd.var";
  mk t i bfalse btrue

let nvar t i =
  if i < 0 || i >= t.nvars then invalid_arg "Bdd.nvar";
  mk t i btrue bfalse

let level t n = t.var_of.(n)
let low t n = t.low_of.(n)
let high t n = t.high_of.(n)
let is_terminal n = n < 2

(* Opcode 0 is reserved for ite in the computed table. *)
let rec ite t f g h =
  if f = btrue then g
  else if f = bfalse then h
  else if g = h then g
  else if g = btrue && h = bfalse then f
  else
    let key = (0, f, g, h) in
    match Hashtbl.find_opt t.computed key with
    | Some r -> r
    | None ->
        let v = min t.var_of.(f) (min t.var_of.(g) t.var_of.(h)) in
        let cof n side =
          if t.var_of.(n) = v then if side then t.high_of.(n) else t.low_of.(n)
          else n
        in
        let r_high = ite t (cof f true) (cof g true) (cof h true) in
        let r_low = ite t (cof f false) (cof g false) (cof h false) in
        let r = mk t v r_low r_high in
        Hashtbl.replace t.computed key r;
        r

let bnot t f = ite t f bfalse btrue
let band t f g = ite t f g bfalse
let bor t f g = ite t f btrue g
let bxor t f g = ite t f (bnot t g) g
let maj3 t f g h = bor t (band t f g) (bor t (band t f h) (band t g h))

let rec eval t n a =
  if n = bfalse then false
  else if n = btrue then true
  else if a.(t.var_of.(n)) then eval t t.high_of.(n) a
  else eval t t.low_of.(n) a

let fold_reachable t roots ~init f =
  let visited = Hashtbl.create 97 in
  let acc = ref init in
  let rec visit n =
    if (not (is_terminal n)) && not (Hashtbl.mem visited n) then begin
      Hashtbl.add visited n ();
      visit t.low_of.(n);
      visit t.high_of.(n);
      acc := f n !acc
    end
  in
  List.iter visit roots;
  !acc

let count_nodes t roots = fold_reachable t roots ~init:0 (fun _ acc -> acc + 1)

let nodes_per_level t roots =
  let counts = Array.make t.nvars 0 in
  fold_reachable t roots ~init:() (fun n () ->
      counts.(t.var_of.(n)) <- counts.(t.var_of.(n)) + 1)
  |> fun () -> counts

let truth_table t root =
  let n = t.nvars in
  if n > Logic.Truth_table.max_vars then invalid_arg "Bdd.truth_table";
  Logic.Truth_table.of_function n (fun a -> eval t root a)

let of_truth_table t tt =
  let n = Logic.Truth_table.num_vars tt in
  if n > t.nvars then invalid_arg "Bdd.of_truth_table";
  (* Shannon expansion from the top variable down, memoized on the table
     bits. *)
  let memo = Hashtbl.create 97 in
  let rec build tt v =
    if v = n then if Logic.Truth_table.get tt 0 then btrue else bfalse
    else
      let key = (Logic.Truth_table.to_bits tt, v) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
          let lo = build (Logic.Truth_table.cofactor tt v false) (v + 1) in
          let hi = build (Logic.Truth_table.cofactor tt v true) (v + 1) in
          let r = mk t v lo hi in
          Hashtbl.replace memo key r;
          r
  in
  build tt 0

let size t = t.n
