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

let canonical_key ~flow ~arch ~realization ~verify mig =
  let canon, _changed = Core.Mig_passes.strash mig in
  let buf = Buffer.create (32 * (Core.Mig.num_nodes canon + 16)) in
  Buffer.add_string buf "migsyn-serve-key/1\n";
  Printf.bprintf buf "pis=%d\n" (Core.Mig.num_pis canon);
  (* The canonical graph is densely numbered and fully live (strash's
     postcondition), so an id-order scan is a complete, deterministic
     serialization of the signed fanin triples. *)
  for n = 0 to Core.Mig.num_nodes canon - 1 do
    match Core.Mig.kind canon n with
    | Core.Mig.Gate when not (Core.Mig.is_dead canon n) ->
        let f = Core.Mig.fanins canon n in
        Buffer.add_char buf 'g';
        Buffer.add_string buf (string_of_int n);
        Buffer.add_char buf ':';
        Buffer.add_string buf (string_of_int f.(0));
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int f.(1));
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int f.(2));
        Buffer.add_char buf '\n'
    | _ -> ()
  done;
  Array.iter
    (fun s ->
      Buffer.add_char buf 'o';
      Buffer.add_string buf (string_of_int s);
      Buffer.add_char buf '\n')
    (Core.Mig.pos canon);
  Printf.bprintf buf "flow=%s\n" flow;
  Printf.bprintf buf "arch=%s\n" arch;
  Printf.bprintf buf "realization=%s\n" realization;
  Printf.bprintf buf "verify=%b\n" verify;
  (canon, Buffer.contents buf)

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
