exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

module Ints = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }
  let clear v = v.len <- 0

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    Array.unsafe_set v.data v.len x;
    v.len <- v.len + 1

  let pop v =
    v.len <- v.len - 1;
    v.data.(v.len)

  let length v = v.len
  let get v i = if i < v.len then v.data.(i) else invalid_arg "Netlist_scan.Ints.get"
end

(* ------------------------------------------------------------------ *)
(* Lines and slices                                                    *)
(* ------------------------------------------------------------------ *)

let iter_string_lines text f =
  let n = String.length text in
  let line = ref 1 and start = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get text i = '\n' then begin
      f !line text !start i;
      incr line;
      start := i + 1
    end
  done;
  f !line text !start n

let iter_channel_lines ic f =
  let line = ref 0 in
  try
    while true do
      let s = input_line ic in
      incr line;
      f !line s 0 (String.length s)
    done
  with End_of_file -> ()

(* [String.trim]'s whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let skip_space s a b =
  let i = ref a in
  while !i < b && is_space (String.unsafe_get s !i) do
    incr i
  done;
  !i

let trim_end s a b =
  let j = ref b in
  while !j > a && is_space (String.unsafe_get s (!j - 1)) do
    decr j
  done;
  !j

let index s a b c =
  let i = ref a in
  while !i < b && String.unsafe_get s !i <> c do
    incr i
  done;
  if !i < b then !i else -1

let rindex s a b c =
  let j = ref (b - 1) in
  while !j >= a && String.unsafe_get s !j <> c do
    decr j
  done;
  if !j >= a then !j else -1

let has_prefix_ci s a b kw =
  let k = String.length kw in
  b - a >= k
  &&
  let i = ref 0 in
  while !i < k && Char.uppercase_ascii (String.unsafe_get s (a + !i)) = kw.[!i] do
    incr i
  done;
  !i = k

let equal s a b str =
  b - a = String.length str
  &&
  let i = ref 0 in
  while !i < b - a && String.unsafe_get s (a + !i) = String.unsafe_get str !i do
    incr i
  done;
  !i = b - a

(* ------------------------------------------------------------------ *)
(* Names: open addressing over slices, ids dense from 0                *)
(* ------------------------------------------------------------------ *)

type names = {
  mutable slots : int array;  (* id + 1; 0 = empty; power-of-two size *)
  mutable chars : Bytes.t;  (* every name, back to back *)
  mutable start : int array;  (* per id: offset in [chars]; id + 1's start ends it *)
  mutable hashes : int array;
  mutable n : int;
}

let names () =
  {
    slots = Array.make 256 0;
    chars = Bytes.create 1024;
    start = Array.make 129 0;
    hashes = Array.make 128 0;
    n = 0;
  }

(* FNV-1a, with the high bits folded into the low ones the slots use. *)
let hash s a b =
  let h = ref 0x811c9dc5 in
  for i = a to b - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  let h = !h in
  (h lxor (h lsr 23) lxor (h lsr 41)) land max_int

let same t id s a b =
  let o = t.start.(id) in
  t.start.(id + 1) - o = b - a
  &&
  let i = ref 0 in
  while !i < b - a && Bytes.unsafe_get t.chars (o + !i) = String.unsafe_get s (a + !i) do
    incr i
  done;
  !i = b - a

let grow t =
  let size = 2 * Array.length t.slots in
  let slots = Array.make size 0 and mask = size - 1 in
  for id = 0 to t.n - 1 do
    let i = ref (t.hashes.(id) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  let start = Array.make ((size / 2) + 1) 0 and hashes = Array.make (size / 2) 0 in
  Array.blit t.start 0 start 0 (t.n + 1);
  Array.blit t.hashes 0 hashes 0 t.n;
  t.slots <- slots;
  t.start <- start;
  t.hashes <- hashes

(* Load stays at most one half, and [hashes] holds half as many entries
   as [slots], so the id a new name gets always has room. *)
let add t s a b h slot =
  let id = t.n and len = b - a in
  let used = t.start.(id) in
  if used + len > Bytes.length t.chars then begin
    let chars = Bytes.create (2 * (Bytes.length t.chars + len)) in
    Bytes.blit t.chars 0 chars 0 used;
    t.chars <- chars
  end;
  Bytes.blit_string s a t.chars used len;
  t.slots.(slot) <- id + 1;
  t.hashes.(id) <- h;
  t.start.(id + 1) <- used + len;
  t.n <- id + 1;
  if 2 * t.n >= Array.length t.slots then grow t;
  id

let intern t s a b =
  let h = hash s a b in
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) and id = ref (-1) in
  while !id < 0 do
    let v = slots.(!i) in
    if v = 0 then id := add t s a b h !i
    else if t.hashes.(v - 1) = h && same t (v - 1) s a b then id := v - 1
    else i := (!i + 1) land mask
  done;
  !id

let name t id = Bytes.sub_string t.chars t.start.(id) (t.start.(id + 1) - t.start.(id))
let count t = t.n

(* ------------------------------------------------------------------ *)
(* Definitions and the resolver                                        *)
(* ------------------------------------------------------------------ *)

type defs = {
  target : Ints.t;
  lines : Ints.t;
  op_start : Ints.t;  (* one past the last def: the end of its operands *)
  ops : Ints.t;
}

let defs () =
  let d =
    {
      target = Ints.create ();
      lines = Ints.create ();
      op_start = Ints.create ();
      ops = Ints.create ();
    }
  in
  Ints.push d.op_start 0;
  d

let push_operand d id = Ints.push d.ops id

let end_def d ~target ~line =
  Ints.push d.target target;
  Ints.push d.lines line;
  Ints.push d.op_start (Ints.length d.ops);
  Ints.length d.target - 1

let add_def d ~target ~line operands =
  for i = 0 to Ints.length operands - 1 do
    push_operand d (Ints.get operands i)
  done;
  end_def d ~target ~line

let line d k = Ints.get d.lines k
let arity d k = Ints.get d.op_start (k + 1) - Ints.get d.op_start k

type resolver = {
  names : names;
  d : defs;
  node : int array;  (* per name: its network node, or -1 *)
  def_of : int array;  (* per name: its last definition, or -1 *)
  busy : Bytes.t;  (* per name: on the current dependency path *)
  stack : Ints.t;  (* frames: 2·name = visit, 2·def + 1 = emit *)
}

let resolver names d =
  let n = count names in
  let def_of = Array.make n (-1) in
  for k = 0 to Ints.length d.target - 1 do
    def_of.(Ints.get d.target k) <- k
  done;
  {
    names;
    d;
    node = Array.make n (-1);
    def_of;
    busy = Bytes.make n '\000';
    stack = Ints.create ();
  }

let bind r name node = r.node.(name) <- node

let resolve r ~emit root =
  let stack = r.stack and d = r.d in
  Ints.clear stack;
  Ints.push stack (2 * root);
  while Ints.length stack > 0 do
    let frame = Ints.pop stack in
    if frame land 1 = 0 then begin
      let id = frame lsr 1 in
      if r.node.(id) < 0 then begin
        let k = r.def_of.(id) in
        if k < 0 then fail 0 ("undefined signal " ^ name r.names id);
        if Bytes.get r.busy id <> '\000' then
          fail (line d k) ("combinational cycle at " ^ name r.names id);
        Bytes.set r.busy id '\001';
        Ints.push stack ((2 * k) + 1);
        (* reversed, so the leftmost operand resolves first *)
        for i = Ints.get d.op_start (k + 1) - 1 downto Ints.get d.op_start k do
          Ints.push stack (2 * Ints.get d.ops i)
        done
      end
    end
    else begin
      let k = frame lsr 1 in
      let id = Ints.get d.target k in
      Bytes.set r.busy id '\000';
      r.node.(id) <- emit k
    end
  done;
  r.node.(root)

let fanins r k =
  let start = Ints.get r.d.op_start k in
  let a = Array.make (Ints.get r.d.op_start (k + 1) - start) 0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- r.node.(Ints.get r.d.ops (start + i))
  done;
  a

let add_input net ~line name =
  if Logic.Network.find_input net name <> None then fail line ("duplicate input " ^ name);
  Logic.Network.add_input net name
