module Mig = Core.Mig

(* Every gate is M(0, a, b) with [const0 < a < b]: fanin slot 0 holds the
   constant, slots 1 and 2 the AND operands. *)
type t = Mig.t
type signal = int
type kind = Const | Pi of int | And

let const0 = Mig.const0
let const1 = Mig.const1
let not_ = Mig.not_
let node_of = Mig.node_of
let is_compl = Mig.is_compl
let create = Mig.create
let add_pi = Mig.add_pi

(* The one-level cases are decided here, so [Mig.maj] only sees two
   distinct non-constant nodes: its Ω.M never fires or counts a hit, and
   each new gate takes the next node id. *)
let and_ t x y =
  let a = if x <= y then x else y and b = if x <= y then y else x in
  if a = const0 then const0
  else if a = const1 then b
  else if a = b then a
  else if a lxor b = 1 then const0
  else Mig.maj t a b const0

let or_ t a b = not_ (and_ t (not_ a) (not_ b))
let xor_ t a b = or_ t (and_ t a (not_ b)) (and_ t (not_ a) b)
let mux t s a b = or_ t (and_ t s a) (and_ t (not_ s) b)
let maj3 t a b c = or_ t (and_ t a b) (or_ t (and_ t a c) (and_ t b c))
let add_po = Mig.add_po

(* Sized by every network node: the AND count is of that order, where the
   gate-making count [Mig_of_network.convert] uses would grow the store
   several times ([Maj] alone makes five ANDs). *)
let of_network net =
  Core.Mig_of_network.convert_with { and_; or_; xor_; maj = maj3; mux }
    ~capacity:(Logic.Network.num_nodes net + 1) net

let kind t n =
  match Mig.kind t n with Mig.Const -> Const | Mig.Pi k -> Pi k | Mig.Gate -> And

let fanins t n = (Mig.fanin t n 1, Mig.fanin t n 2)
let num_pis = Mig.num_pis
let num_pos = Mig.num_pos
let pi = Mig.pi
let pos = Mig.pos
let size = Mig.size
let to_mig t = t

let pp_stats ppf t =
  Format.fprintf ppf "pis=%d pos=%d ands=%d depth=%d" (num_pis t) (num_pos t) (size t)
    (Core.Mig_levels.compute_scratch t).Core.Mig_levels.depth
