(* Slot [i] holds key [(keys.(3i), keys.(3i+1), keys.(3i+2))] when
   [vals.(i) >= 0]; [empty] ends a probe and [tomb] marks a removed entry
   that probes step over.  [used] counts live entries and tombstones, and
   stays at most half the slots, so every probe meets an empty slot. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;
  mutable live : int;
  mutable used : int;
}

let empty = -1
let tomb = -2

let capacity_for n =
  let c = ref 8 in
  while !c < 2 * n do
    c := 2 * !c
  done;
  !c

let make cap =
  { keys = Array.make (3 * cap) 0; vals = Array.make cap empty; mask = cap - 1; live = 0; used = 0 }

let create n = make (capacity_for n)
let length t = t.live

let[@inline] home mask a b c =
  let h = ((((a * 0x9E3779B1) + b) * 0x9E3779B1) + c) * 0x9E3779B1 in
  (h lxor (h lsr 32)) land mask

let[@inline] matches keys i a b c =
  keys.(3 * i) = a && keys.((3 * i) + 1) = b && keys.((3 * i) + 2) = c

let find t a b c =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let rec probe i =
    let v = vals.(i) in
    if v = empty then -1
    else if v >= 0 && matches keys i a b c then v
    else probe ((i + 1) land mask)
  in
  probe (home mask a b c)

let set_slot t i a b c v =
  t.keys.(3 * i) <- a;
  t.keys.((3 * i) + 1) <- b;
  t.keys.((3 * i) + 2) <- c;
  t.vals.(i) <- v

(* Re-insert the live entries into fresh arrays: twice as many slots when
   live entries fill more than a quarter of them, else as many (the
   tombstones made up the load). *)
let rebuild t =
  let keys = t.keys and vals = t.vals in
  let cap = Array.length vals in
  let cap' = if 4 * t.live > cap then 2 * cap else cap in
  t.keys <- Array.make (3 * cap') 0;
  t.vals <- Array.make cap' empty;
  t.mask <- cap' - 1;
  t.used <- t.live;
  for i = 0 to cap - 1 do
    let v = vals.(i) in
    if v >= 0 then begin
      let a = keys.(3 * i) and b = keys.((3 * i) + 1) and c = keys.((3 * i) + 2) in
      let j = ref (home t.mask a b c) in
      while t.vals.(!j) <> empty do
        j := (!j + 1) land t.mask
      done;
      set_slot t !j a b c v
    end
  done

let replace t a b c v =
  if v < 0 then invalid_arg "Triple_table.replace: negative value";
  let keys = t.keys and vals = t.vals and mask = t.mask in
  (* [free] is the first tombstone passed, where a new key goes. *)
  let rec probe i free =
    let w = vals.(i) in
    if w = empty then
      if free >= 0 then begin
        set_slot t free a b c v;
        t.live <- t.live + 1
      end
      else begin
        set_slot t i a b c v;
        t.live <- t.live + 1;
        t.used <- t.used + 1;
        if 2 * t.used > Array.length vals then rebuild t
      end
    else if w = tomb then probe ((i + 1) land mask) (if free >= 0 then free else i)
    else if matches keys i a b c then vals.(i) <- v
    else probe ((i + 1) land mask) free
  in
  probe (home mask a b c) (-1)

(* A removed slot followed by an empty one can itself become empty: no
   probe for a key stored elsewhere passes it, since such a probe would
   have to cross the empty slot too. *)
let remove t a b c =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let rec probe i =
    let v = vals.(i) in
    if v = empty then ()
    else if v >= 0 && matches keys i a b c then begin
      t.live <- t.live - 1;
      if vals.((i + 1) land mask) = empty then begin
        vals.(i) <- empty;
        t.used <- t.used - 1
      end
      else vals.(i) <- tomb
    end
    else probe ((i + 1) land mask)
  in
  probe (home mask a b c)
