(* Strash-keyed LRU result cache.  See cache.mli for the contract. *)

module Json = Obs.Json

(* Obs mirrors: visible in --metrics exports and run manifests. *)
let c_hits = Obs.counter "serve.cache/hits"
let c_misses = Obs.counter "serve.cache/misses"
let c_coalesced = Obs.counter "serve.cache/coalesced"
let c_evictions = Obs.counter "serve.cache/evictions"

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  entries : int;
  bytes : int;
  budget_bytes : int;
}

type entry = {
  key : string;
  payload : Json.t;
  bytes : int;
  mutable prev : entry option;  (* towards MRU *)
  mutable next : entry option;  (* towards LRU *)
}

type t = {
  table : (string, entry) Hashtbl.t;
  budget_bytes : int;
  mutable head : entry option;  (* most recently used *)
  mutable tail : entry option;  (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable evictions : int;
}

let default_budget = 256 * 1024 * 1024

let create ?(budget_bytes = default_budget) () =
  if budget_bytes <= 0 then
    invalid_arg "Serve.Cache.create: budget_bytes must be positive";
  {
    table = Hashtbl.create 256;
    budget_bytes;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    coalesced = 0;
    evictions = 0;
  }

(* ---------------- intrusive LRU list ---------------- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let remove_entry t e =
  unlink t e;
  Hashtbl.remove t.table e.key;
  t.bytes <- t.bytes - e.bytes

(* ---------------- canonical key ---------------- *)

(* Per-entry bookkeeping overhead charged against the byte budget, so a
   flood of tiny entries cannot grow the table unboundedly. *)
let entry_overhead = 128

(* Decimal digits of [x >= 0]. *)
let digits x =
  let rec go d p = if x < p then d else go (d + 1) (10 * p) in
  go 1 10

(* Write [x >= 0] in decimal at [pos] of [b]; returns the position after
   it.  The key spells about four numbers per gate, and this writer skips
   the string that [string_of_int] allocates for each. *)
let put_uint b pos x =
  let stop = pos + digits x in
  let rec go i x =
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (x mod 10)));
    if x >= 10 then go (i - 1) (x / 10)
  in
  go (stop - 1) x;
  stop

let canonical_key ~flow ~arch ~realization ~verify mig =
  let module M = Core.Mig in
  let canon, _changed = Core.Mig_passes.strash mig in
  let head = Printf.sprintf "migsyn-serve-key/1\npis=%d\n" (M.num_pis canon) in
  let tail =
    Printf.sprintf "flow=%s\narch=%s\nrealization=%s\nverify=%b\n" flow arch realization
      verify
  in
  let nodes = M.num_nodes canon and npos = M.num_pos canon in
  (* Every id and signal has at most [w] digits, so a gate line takes at
     most [5 + 4w] bytes and an output line [2 + w]. *)
  let w = digits ((2 * nodes) + 1) in
  let b =
    Bytes.create
      (String.length head + (nodes * (5 + (4 * w))) + (npos * (2 + w)) + String.length tail)
  in
  let put_string pos s =
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  in
  let put_char pos c =
    Bytes.unsafe_set b pos c;
    pos + 1
  in
  let pos = ref (put_string 0 head) in
  (* The canonical graph is densely numbered and fully live (strash's
     postcondition), so an id-order scan is a complete, deterministic
     serialization of the signed fanin triples. *)
  for n = 0 to nodes - 1 do
    match M.kind canon n with
    | M.Gate when not (M.is_dead canon n) ->
        let p = put_uint b (put_char !pos 'g') n in
        let p = put_uint b (put_char p ':') (M.fanin canon n 0) in
        let p = put_uint b (put_char p ',') (M.fanin canon n 1) in
        let p = put_uint b (put_char p ',') (M.fanin canon n 2) in
        pos := put_char p '\n'
    | _ -> ()
  done;
  for i = 0 to npos - 1 do
    let p = put_uint b (put_char !pos 'o') (M.po canon i) in
    pos := put_char p '\n'
  done;
  let len = put_string !pos tail in
  (canon, Bytes.sub_string b 0 len)

let fingerprint key = Digest.to_hex (Digest.string key)

(* ---------------- operations ---------------- *)

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
      t.hits <- t.hits + 1;
      Obs.incr c_hits;
      unlink t e;
      push_front t e;
      Some e.payload

let note_miss t =
  t.misses <- t.misses + 1;
  Obs.incr c_misses

let note_coalesced t =
  t.coalesced <- t.coalesced + 1;
  Obs.incr c_coalesced

let evict_to_budget t =
  (* Never evict the single newest entry: an oversized result passes
     through rather than thrashing the whole cache. *)
  while t.bytes > t.budget_bytes && Hashtbl.length t.table > 1 do
    match t.tail with
    | None -> assert false
    | Some lru ->
        remove_entry t lru;
        t.evictions <- t.evictions + 1;
        Obs.incr c_evictions
  done

let store t key payload =
  (match Hashtbl.find_opt t.table key with
  | Some old -> remove_entry t old
  | None -> ());
  let bytes =
    String.length key + String.length (Json.to_string payload) + entry_overhead
  in
  let e = { key; payload; bytes; prev = None; next = None } in
  Hashtbl.replace t.table key e;
  push_front t e;
  t.bytes <- t.bytes + bytes;
  evict_to_budget t

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    coalesced = t.coalesced;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    bytes = t.bytes;
    budget_bytes = t.budget_bytes;
  }

let stats_json t =
  let s = stats t in
  Json.Assoc
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("coalesced", Json.Int s.coalesced);
      ("evictions", Json.Int s.evictions);
      ("entries", Json.Int s.entries);
      ("bytes", Json.Int s.bytes);
      ("budget_bytes", Json.Int s.budget_bytes);
    ]
