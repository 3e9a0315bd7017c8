type t = { width : int; words : int64 array }

let num_words_for width = (width + 63) / 64

let create width =
  assert (width >= 0);
  { width; words = Array.make (max 1 (num_words_for width)) 0L }

let width t = t.width
let num_words t = Array.length t.words
let copy t = { width = t.width; words = Array.copy t.words }

(* Mask for the last (possibly partial) word. *)
let last_mask t =
  let rem = t.width land 63 in
  if rem = 0 then Int64.minus_one else Int64.sub (Int64.shift_left 1L rem) 1L

let normalize t =
  if t.width > 0 then begin
    let last = num_words_for t.width - 1 in
    t.words.(last) <- Int64.logand t.words.(last) (last_mask t)
  end
  else t.words.(0) <- 0L

let get t i =
  assert (i >= 0 && i < t.width);
  Int64.logand (Int64.shift_right_logical t.words.(i lsr 6) (i land 63)) 1L = 1L

let set t i b =
  assert (i >= 0 && i < t.width);
  let w = i lsr 6 and bit = Int64.shift_left 1L (i land 63) in
  if b then t.words.(w) <- Int64.logor t.words.(w) bit
  else t.words.(w) <- Int64.logand t.words.(w) (Int64.lognot bit)

let fill t b =
  Array.fill t.words 0 (Array.length t.words) (if b then Int64.minus_one else 0L);
  normalize t

let map2 f a b =
  assert (a.width = b.width);
  let r = create a.width in
  for i = 0 to Array.length r.words - 1 do
    r.words.(i) <- f a.words.(i) b.words.(i)
  done;
  normalize r;
  r

let band = map2 Int64.logand
let bor = map2 Int64.logor
let bxor = map2 Int64.logxor

let bnot a =
  let r = create a.width in
  for i = 0 to Array.length r.words - 1 do
    r.words.(i) <- Int64.lognot a.words.(i)
  done;
  normalize r;
  r

let maj3 a b c =
  assert (a.width = b.width && b.width = c.width);
  let r = create a.width in
  for i = 0 to Array.length r.words - 1 do
    let x = a.words.(i) and y = b.words.(i) and z = c.words.(i) in
    r.words.(i) <-
      Int64.logor
        (Int64.logand x y)
        (Int64.logor (Int64.logand x z) (Int64.logand y z))
  done;
  normalize r;
  r

let mux s a b =
  assert (s.width = a.width && a.width = b.width);
  let r = create a.width in
  for i = 0 to Array.length r.words - 1 do
    r.words.(i) <-
      Int64.logor
        (Int64.logand s.words.(i) a.words.(i))
        (Int64.logand (Int64.lognot s.words.(i)) b.words.(i))
  done;
  normalize r;
  r

let equal a b = a.width = b.width && a.words = b.words

let is_zero a = Array.for_all (fun w -> w = 0L) a.words

let popcount a =
  let count64 x =
    let rec go x acc = if x = 0L then acc else go (Int64.logand x (Int64.sub x 1L)) (acc + 1) in
    go x 0
  in
  Array.fold_left (fun acc w -> acc + count64 w) 0 a.words

let randomize rng t =
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Prng.next64 rng
  done;
  normalize t

let word t i = t.words.(i)

let set_word t i w =
  t.words.(i) <- w;
  normalize t

let to_string t =
  String.init t.width (fun i -> if get t (t.width - 1 - i) then '1' else '0')

let of_string s =
  let w = String.length s in
  let t = create w in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> set t (w - 1 - i) true
      | '0' -> ()
      | _ -> invalid_arg "Bitvec.of_string: expected '0' or '1'")
    s;
  t

let pp ppf t = Format.pp_print_string ppf (to_string t)
