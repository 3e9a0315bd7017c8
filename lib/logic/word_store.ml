let block_words = 8

type t = {
  data : Bytes.t;
  stride : int;  (* bytes per slot: one block, or the whole width if narrower *)
  nwords : int;  (* words across the whole width *)
  mutable base : int;  (* first word of the current block *)
  mutable len : int;  (* words in the current block *)
}

let input_width who ins =
  if Array.length ins = 0 then 1
  else begin
    let w = Bitvec.width ins.(0) in
    Array.iter (fun bv -> if Bitvec.width bv <> w then invalid_arg (who ^ ": input width")) ins;
    w
  end

let create ~slots ~width =
  let nwords = max 1 ((width + 63) / 64) in
  let per = min block_words nwords in
  { data = Bytes.make (slots * per * 8) '\000'; stride = per * 8; nwords; base = 0; len = 0 }

let iter_blocks t f =
  let per = t.stride / 8 in
  let b = ref 0 in
  while !b < t.nwords do
    t.base <- !b;
    t.len <- min per (t.nwords - !b);
    f ();
    b := !b + per
  done

(* A literal is [2·slot + complement]; [mask] is its all-zero or all-one
   complement word. *)
let[@inline] at t lit = (lit lsr 1) * t.stride
let[@inline] mask lit = Int64.neg (Int64.of_int (lit land 1))
let[@inline] read t o w m = Int64.logxor (Bytes.get_int64_ne t.data (o + (w lsl 3))) m

let fill t slot b =
  let o = slot * t.stride and v = if b then -1L else 0L in
  for w = 0 to t.len - 1 do
    Bytes.set_int64_ne t.data (o + (w lsl 3)) v
  done

let load t slot bv =
  let o = slot * t.stride in
  for w = 0 to t.len - 1 do
    Bytes.set_int64_ne t.data (o + (w lsl 3)) (Bitvec.word bv (t.base + w))
  done

let store t lit bv =
  let o = at t lit and m = mask lit in
  for w = 0 to t.len - 1 do
    Bitvec.set_word bv (t.base + w) (read t o w m)
  done

let copy t slot a =
  let d = slot * t.stride and oa = at t a and ma = mask a in
  for w = 0 to t.len - 1 do
    Bytes.set_int64_ne t.data (d + (w lsl 3)) (read t oa w ma)
  done

let and_ t slot a =
  let d = slot * t.stride and oa = at t a and ma = mask a in
  for w = 0 to t.len - 1 do
    let o = d + (w lsl 3) in
    Bytes.set_int64_ne t.data o (Int64.logand (Bytes.get_int64_ne t.data o) (read t oa w ma))
  done

let or_ t slot a =
  let d = slot * t.stride and oa = at t a and ma = mask a in
  for w = 0 to t.len - 1 do
    let o = d + (w lsl 3) in
    Bytes.set_int64_ne t.data o (Int64.logor (Bytes.get_int64_ne t.data o) (read t oa w ma))
  done

let xor_ t slot a =
  let d = slot * t.stride and oa = at t a and ma = mask a in
  for w = 0 to t.len - 1 do
    let o = d + (w lsl 3) in
    Bytes.set_int64_ne t.data o (Int64.logxor (Bytes.get_int64_ne t.data o) (read t oa w ma))
  done

let maj t slot a b c =
  let d = slot * t.stride in
  let oa = at t a and ob = at t b and oc = at t c in
  let ma = mask a and mb = mask b and mc = mask c in
  for w = 0 to t.len - 1 do
    let x = read t oa w ma and y = read t ob w mb and z = read t oc w mc in
    Bytes.set_int64_ne t.data
      (d + (w lsl 3))
      (Int64.logor (Int64.logand x y) (Int64.logand z (Int64.logor x y)))
  done

let mux t slot s a b =
  let d = slot * t.stride in
  let os = at t s and oa = at t a and ob = at t b in
  let ms = mask s and ma = mask a and mb = mask b in
  for w = 0 to t.len - 1 do
    let x = read t os w ms in
    Bytes.set_int64_ne t.data
      (d + (w lsl 3))
      (Int64.logor (Int64.logand x (read t oa w ma)) (Int64.logand (Int64.lognot x) (read t ob w mb)))
  done
