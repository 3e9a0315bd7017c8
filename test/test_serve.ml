(* The serve layer: the migsyn-serve/1 codec, the strash-keyed LRU result
   cache (including the QCheck canonicalization-collision property), and
   end-to-end daemon tests over a real Unix-domain socket — cache-hit
   bit-identity, --jobs key stability, error containment, metrics and
   clean shutdown. *)

open Logic
module Json = Obs.Json
module P = Serve.Protocol

let json =
  Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Json.to_string j)) ( = )

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let maj_blif =
  ".model t\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n1-1 1\n-11 1\n.end\n"

let synth_op ?(flows = []) ?algorithm ?effort ?jobs ?cost ?arch
    ?(realization = "maj") ?(verify = true) circuit =
  P.Synth
    { circuit; flows; algorithm; effort; jobs; cost; arch; realization; verify }

let decode_err line =
  match P.decode_request line with
  | Error (code, _) -> P.code_name code
  | Ok _ -> "ok"

let protocol_tests =
  let open Alcotest in
  let roundtrip name op =
    test_case (name ^ " round-trips") `Quick (fun () ->
        let req = { P.id = Some "r1"; op } in
        match P.decode_request (P.encode_request req) with
        | Ok got -> check bool "same request" true (got = req)
        | Error (_, msg) -> fail msg)
  in
  [
    roundtrip "ping" P.Ping;
    roundtrip "metrics" P.Metrics;
    roundtrip "shutdown" P.Shutdown;
    roundtrip "minimal synth"
      (synth_op (P.Inline { format = "blif"; source = maj_blif }));
    roundtrip "full synth"
      (synth_op
         ~flows:[ "push_up"; "omega_i; push_up" ]
         ~effort:7 ~jobs:3 ~cost:"weighted_maj" ~arch:"32x32"
         ~realization:"imp" ~verify:false (P.File "a.blif"));
    roundtrip "algorithm synth"
      (synth_op ~algorithm:"steps" ~effort:2
         (P.Inline { format = "bench"; source = "INPUT(a)\nOUTPUT(a)\n" }));
    test_case "id defaults to absent and accepts integers" `Quick (fun () ->
        (match P.decode_request "{\"schema\":\"migsyn-serve/1\",\"op\":\"ping\"}" with
        | Ok { P.id = None; op = P.Ping } -> ()
        | _ -> fail "expected anonymous ping");
        match
          P.decode_request "{\"schema\":\"migsyn-serve/1\",\"op\":\"ping\",\"id\":7}"
        with
        | Ok { P.id = Some "7"; op = P.Ping } -> ()
        | _ -> fail "expected id \"7\"");
    test_case "malformed JSON is parse_error" `Quick (fun () ->
        check string "code" "parse_error" (decode_err "{nope");
        check string "code" "parse_error" (decode_err "[1,2]"));
    test_case "missing or unknown schema is bad_schema" `Quick (fun () ->
        check string "code" "bad_schema" (decode_err "{\"op\":\"ping\"}");
        check string "code" "bad_schema"
          (decode_err "{\"schema\":\"migsyn-serve/9\",\"op\":\"ping\"}"));
    test_case "unknown op is unsupported_op" `Quick (fun () ->
        check string "code" "unsupported_op"
          (decode_err "{\"schema\":\"migsyn-serve/1\",\"op\":\"dance\"}"));
    test_case "circuit validation is bad_request" `Quick (fun () ->
        let req body =
          "{\"schema\":\"migsyn-serve/1\",\"op\":\"synth\"," ^ body ^ "}"
        in
        check string "missing circuit" "bad_request"
          (decode_err (req "\"flow\":\"push_up\""));
        check string "path+source" "bad_request"
          (decode_err
             (req
                "\"circuit\":{\"path\":\"a.blif\",\"format\":\"blif\",\"source\":\"x\"}"));
        check string "unknown format" "bad_request"
          (decode_err (req "\"circuit\":{\"format\":\"vhdl\",\"source\":\"x\"}"));
        check string "flow+algorithm" "bad_request"
          (decode_err
             (req
                "\"circuit\":{\"path\":\"a.blif\"},\"flow\":\"push_up\",\"algorithm\":\"steps\""));
        check string "empty flow list" "bad_request"
          (decode_err (req "\"circuit\":{\"path\":\"a.blif\"},\"flow\":[]"));
        check string "effort < 1" "bad_request"
          (decode_err (req "\"circuit\":{\"path\":\"a.blif\"},\"effort\":0"));
        check string "bad realization" "bad_request"
          (decode_err
             (req "\"circuit\":{\"path\":\"a.blif\"},\"realization\":\"cmos\"")));
    test_case "responses carry the envelope members" `Quick (fun () ->
        let ok =
          P.ok_response ~id:(Some "x") ~cache:"hit" ~seconds:1.5
            ~result:(Json.Assoc [ ("a", Json.Int 1) ])
        in
        check json "schema" (Json.String "migsyn-serve/1") (Json.member "schema" ok);
        check json "cache" (Json.String "hit") (Json.member "cache" ok);
        let err = P.error_response ~id:None ~code:P.Oversized "too big" in
        check json "status" (Json.String "error") (Json.member "status" err);
        check json "code" (Json.String "oversized")
          (Json.member "code" (Json.member "error" err)));
    test_case "strip_volatile drops cache and seconds only" `Quick (fun () ->
        let ok =
          P.ok_response ~id:(Some "x") ~cache:"hit" ~seconds:1.5
            ~result:(Json.Int 3)
        in
        let s = P.strip_volatile ok in
        check json "cache gone" Json.Null (Json.member "cache" s);
        check json "seconds gone" Json.Null (Json.member "seconds" s);
        check json "result kept" (Json.Int 3) (Json.member "result" s);
        check json "id kept" (Json.String "x") (Json.member "id" s));
  ]

(* ------------------------------------------------------------------ *)
(* Cache units                                                         *)
(* ------------------------------------------------------------------ *)

let payload tag bytes = Json.Assoc [ (tag, Json.String (String.make bytes 'x')) ]

let cache_tests =
  let open Alcotest in
  [
    test_case "store then find, with counters" `Quick (fun () ->
        let c = Serve.Cache.create () in
        Serve.Cache.note_miss c;
        Serve.Cache.store c "k1" (payload "a" 10);
        check json "hit payload" (payload "a" 10)
          (match Serve.Cache.find c "k1" with Some p -> p | None -> Json.Null);
        check bool "miss on absent" true (Serve.Cache.find c "k2" = None);
        let s = Serve.Cache.stats c in
        check int "hits" 1 s.Serve.Cache.hits;
        check int "misses" 1 s.Serve.Cache.misses;
        check int "entries" 1 s.Serve.Cache.entries);
    test_case "restore of a key replaces, not duplicates" `Quick (fun () ->
        let c = Serve.Cache.create () in
        Serve.Cache.store c "k" (payload "a" 10);
        Serve.Cache.store c "k" (payload "b" 500);
        let s = Serve.Cache.stats c in
        check int "one entry" 1 s.Serve.Cache.entries;
        check json "latest payload" (payload "b" 500)
          (match Serve.Cache.find c "k" with Some p -> p | None -> Json.Null));
    test_case "LRU eviction respects recency" `Quick (fun () ->
        (* each entry is ~1180 bytes; budget fits three of them *)
        let c = Serve.Cache.create ~budget_bytes:3600 () in
        Serve.Cache.store c "a" (payload "p" 1000);
        Serve.Cache.store c "b" (payload "p" 1000);
        Serve.Cache.store c "c" (payload "p" 1000);
        ignore (Serve.Cache.find c "a");
        (* "b" is now least recently used *)
        Serve.Cache.store c "d" (payload "p" 1000);
        check bool "a survives (refreshed)" true (Serve.Cache.find c "a" <> None);
        check bool "b evicted (LRU)" true (Serve.Cache.find c "b" = None);
        check bool "c survives" true (Serve.Cache.find c "c" <> None);
        check bool "d survives" true (Serve.Cache.find c "d" <> None);
        let s = Serve.Cache.stats c in
        check int "one eviction" 1 s.Serve.Cache.evictions;
        check int "three entries" 3 s.Serve.Cache.entries;
        check bool "within budget" true (s.Serve.Cache.bytes <= 3600));
    test_case "the sole newest entry is never evicted" `Quick (fun () ->
        let c = Serve.Cache.create ~budget_bytes:64 () in
        Serve.Cache.store c "big1" (payload "p" 4000);
        check bool "oversized survives alone" true
          (Serve.Cache.find c "big1" <> None);
        Serve.Cache.store c "big2" (payload "p" 4000);
        check bool "older one evicted" true (Serve.Cache.find c "big1" = None);
        check bool "newest survives" true (Serve.Cache.find c "big2" <> None));
    test_case "stats_json mirrors stats" `Quick (fun () ->
        let c = Serve.Cache.create ~budget_bytes:1024 () in
        Serve.Cache.store c "k" (payload "a" 10);
        ignore (Serve.Cache.find c "k");
        Serve.Cache.note_coalesced c;
        let j = Serve.Cache.stats_json c in
        check json "hits" (Json.Int 1) (Json.member "hits" j);
        check json "coalesced" (Json.Int 1) (Json.member "coalesced" j);
        check json "budget" (Json.Int 1024) (Json.member "budget_bytes" j));
  ]

(* ------------------------------------------------------------------ *)
(* Canonical keys                                                      *)
(* ------------------------------------------------------------------ *)

let random_mig rng ~pis ~gates ~pos =
  let mig = Core.Mig.create () in
  let signals = ref [| Core.Mig.const0 |] in
  let add s = signals := Array.append !signals [| s |] in
  for _ = 1 to pis do
    add (Core.Mig.add_pi mig)
  done;
  for _ = 1 to gates do
    let pick () =
      let s = Prng.pick rng !signals in
      if Prng.bool rng then Core.Mig.not_ s else s
    in
    add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
  done;
  for _ = 1 to pos do
    let s = Prng.pick rng !signals in
    ignore (Core.Mig.add_po mig (if Prng.bool rng then Core.Mig.not_ s else s))
  done;
  mig

(* Rebuild [mig], translating the live cone 1:1 but interleaving junk gates
   that nothing references: ids shift monotonically and dead nodes appear —
   exactly the degrees of freedom the strash canonicalization must erase. *)
let junk_variant ?(flip_po = false) seed mig =
  let rng = Prng.create ((seed * 2) + 1) in
  let out = Core.Mig.create () in
  let map = Hashtbl.create 97 in
  let created = ref [| Core.Mig.const0 |] in
  Hashtbl.add map (Core.Mig.node_of Core.Mig.const0) Core.Mig.const0;
  for i = 0 to Core.Mig.num_pis mig - 1 do
    let s = Core.Mig.add_pi out in
    created := Array.append !created [| s |];
    Hashtbl.add map (Core.Mig.node_of (Core.Mig.pi mig i)) s
  done;
  let translate s =
    let base = Hashtbl.find map (Core.Mig.node_of s) in
    if Core.Mig.is_compl s then Core.Mig.not_ base else base
  in
  let sorted a b c = List.sort compare [ a; b; c ] in
  (* [Core.Mig.maj] hash-conses: a junk gate whose fanins match those of a
     live gate [m >= n] would hand that live gate the junk's earlier id and
     break the monotone renumbering, so such a junk gate is skipped *)
  let collides n junk =
    let rec go m =
      m < Core.Mig.num_nodes mig
      && ((match Core.Mig.kind mig m with
          | Core.Mig.Gate ->
              let f = Core.Mig.fanins mig m in
              Array.for_all (fun s -> Hashtbl.mem map (Core.Mig.node_of s)) f
              && sorted (translate f.(0)) (translate f.(1)) (translate f.(2)) = junk
          | _ -> false)
         || go (m + 1))
    in
    go n
  in
  (* id order keeps the live gates' relative order, so the renumbering from
     [mig] to [out] is monotone — the invariance the cache key guarantees *)
  for n = 0 to Core.Mig.num_nodes mig - 1 do
    match Core.Mig.kind mig n with
    | Core.Mig.Gate ->
        if Prng.bool rng then begin
          (* junk: a gate nothing will reference *)
          let pick () = Prng.pick rng !created in
          let a = pick () in
          let b = pick () in
          let c = Core.Mig.not_ (pick ()) in
          if not (collides n (sorted a b c)) then ignore (Core.Mig.maj out a b c)
        end;
        let f = Core.Mig.fanins mig n in
        let s =
          Core.Mig.maj out (translate f.(0)) (translate f.(1)) (translate f.(2))
        in
        created := Array.append !created [| s |];
        Hashtbl.add map n s
    | _ -> ()
  done;
  for i = 0 to Core.Mig.num_pos mig - 1 do
    let s = translate (Core.Mig.po mig i) in
    ignore (Core.Mig.add_po out (if flip_po && i = 0 then Core.Mig.not_ s else s))
  done;
  out

let key_of mig =
  snd
    (Serve.Cache.canonical_key ~flow:"push_up" ~arch:"serial"
       ~realization:"maj" ~verify:true mig)

let key_props =
  [
    QCheck.Test.make ~name:"strash-equivalent variants collide to one key"
      ~count:60
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let a = random_mig (Prng.create seed) ~pis:5 ~gates:30 ~pos:3 in
        let b = junk_variant seed a in
        key_of a = key_of b);
    QCheck.Test.make ~name:"functionally different graphs get distinct keys"
      ~count:60
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let a = random_mig (Prng.create seed) ~pis:5 ~gates:30 ~pos:3 in
        let c = junk_variant ~flip_po:true seed a in
        key_of a <> key_of c);
  ]

let key_unit_tests =
  let open Alcotest in
  [
    test_case "key covers flow, arch, realization and verify" `Quick (fun () ->
        let mig = random_mig (Prng.create 42) ~pis:4 ~gates:20 ~pos:2 in
        let key ~flow ~arch ~realization ~verify =
          snd (Serve.Cache.canonical_key ~flow ~arch ~realization ~verify mig)
        in
        let base = key ~flow:"push_up" ~arch:"serial" ~realization:"maj" ~verify:true in
        check bool "stable" true
          (base = key ~flow:"push_up" ~arch:"serial" ~realization:"maj" ~verify:true);
        check bool "flow" true
          (base <> key ~flow:"omega_i" ~arch:"serial" ~realization:"maj" ~verify:true);
        check bool "arch" true
          (base <> key ~flow:"push_up" ~arch:"32x32" ~realization:"maj" ~verify:true);
        check bool "realization" true
          (base <> key ~flow:"push_up" ~arch:"serial" ~realization:"imp" ~verify:true);
        check bool "verify" true
          (base <> key ~flow:"push_up" ~arch:"serial" ~realization:"maj" ~verify:false));
    test_case "dead logic in the source text does not split the key" `Quick
      (fun () ->
        (* same circuit, plus an internal node nothing references: the
           parsed networks differ structurally, the canonical keys agree *)
        let with_junk =
          ".model t\n.inputs a b c\n.outputs f\n\
           .names a b junk\n11 1\n\
           .names a b c f\n11- 1\n1-1 1\n-11 1\n.end\n"
        in
        let a = Core.Mig_of_network.convert (Io.Blif.parse_string maj_blif) in
        let b = Core.Mig_of_network.convert (Io.Blif.parse_string with_junk) in
        Alcotest.(check bool) "same key" true (key_of a = key_of b));
    test_case "fingerprint is a 32-char hex digest" `Quick (fun () ->
        let fp = Serve.Cache.fingerprint "some key" in
        check int "length" 32 (String.length fp);
        String.iter
          (fun ch ->
            check bool "hex" true
              ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')))
          fp);
    test_case "key digits match string_of_int across digit boundaries" `Quick (fun () ->
        (* The key as first written, with [string_of_int] for every number. *)
        let reference canon =
          let buf = Buffer.create 4096 in
          Buffer.add_string buf "migsyn-serve-key/1\n";
          Printf.bprintf buf "pis=%d\n" (Core.Mig.num_pis canon);
          for n = 0 to Core.Mig.num_nodes canon - 1 do
            match Core.Mig.kind canon n with
            | Core.Mig.Gate when not (Core.Mig.is_dead canon n) ->
                let f = Core.Mig.fanins canon n in
                Buffer.add_string buf
                  ("g" ^ string_of_int n ^ ":" ^ string_of_int f.(0) ^ "," ^ string_of_int f.(1)
                 ^ "," ^ string_of_int f.(2) ^ "\n")
            | _ -> ()
          done;
          Array.iter
            (fun s -> Buffer.add_string buf ("o" ^ string_of_int s ^ "\n"))
            (Core.Mig.pos canon);
          Buffer.add_string buf "flow=push_up\narch=serial\nrealization=maj\nverify=true\n";
          Buffer.contents buf
        in
        (* [gates] chained AND gates over three inputs: ids run to
           [gates + 3] and signals to twice that, plus one. *)
        let chain gates =
          let mig = Core.Mig.create () in
          let pis = Array.init 3 (fun _ -> Core.Mig.add_pi mig) in
          let s = ref pis.(0) in
          for i = 1 to gates do
            let p = pis.(i mod 3) in
            s := Core.Mig.and_ mig (if i mod 2 = 0 then Core.Mig.not_ !s else !s) p
          done;
          ignore (Core.Mig.add_po mig !s);
          ignore (Core.Mig.add_po mig (Core.Mig.not_ !s));
          mig
        in
        List.iter
          (fun gates ->
            let canon, key =
              Serve.Cache.canonical_key ~flow:"push_up" ~arch:"serial" ~realization:"maj"
                ~verify:true (chain gates)
            in
            check string (Printf.sprintf "%d gates" gates) (reference canon) key)
          (* ids cross 9/10, 99/100, 999/1000 and 99999/100000 at 6/7, 96/97,
             996/997 and 99996/99997 gates; signals cross them near half that *)
          [ 1; 2; 3; 4; 5; 6; 7; 47; 48; 96; 97; 497; 498; 996; 997; 4_997; 4_998; 49_997;
            49_998; 99_996; 99_997 ]);
    test_case "Table II key bytes are pinned" `Quick (fun () ->
        let keys = Buffer.create 4096 in
        List.iter
          (fun e ->
            let mig = Core.Mig_of_network.convert (e.Io.Benchmarks.build ()) in
            Buffer.add_string keys
              (snd
                 (Serve.Cache.canonical_key ~flow:"push_up" ~arch:"serial"
                    ~realization:"maj" ~verify:true mig)))
          Io.Benchmarks.table2;
        check string "md5 of the 25 keys" "81300d0090f18d6058c913bcf81de523"
          (Digest.to_hex (Digest.string (Buffer.contents keys))));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end over a real socket                                       *)
(* ------------------------------------------------------------------ *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "migsyn-test-%d-%d.sock" (Unix.getpid ()) !n)

let encode op = Json.of_string (P.encode_request { P.id = None; op })

(* Run a daemon on its own domain, hand the socket path to [f], always shut
   the daemon down, and return (f's result, the daemon summary). *)
let with_server ?(jobs = 2) ?max_request_bytes ?budget f =
  let path = fresh_socket () in
  let base = Serve.Server.default_config ~socket_path:path in
  let cfg =
    {
      base with
      Serve.Server.jobs;
      max_request_bytes =
        Option.value max_request_bytes
          ~default:base.Serve.Server.max_request_bytes;
      cache_budget_bytes =
        Option.value budget ~default:base.Serve.Server.cache_budget_bytes;
    }
  in
  let dom = Domain.spawn (fun () -> Serve.Server.run cfg) in
  let result =
    Fun.protect
      ~finally:(fun () ->
        try
          let c = Serve.Client.connect ~retries:5 path in
          (try ignore (Serve.Client.rpc c (encode P.Shutdown))
           with Failure _ -> ());
          Serve.Client.close c
        with Failure _ | Unix.Unix_error _ -> ())
      (fun () -> f path)
  in
  let summary = Domain.join dom in
  (result, summary)

(* Domain ids are handed out in spawn order, so the ids of two probe
   domains spawned around [f] count the domains [f] spawned. *)
let domains_spawned_by f =
  let probe () =
    let d = Domain.spawn ignore in
    let id = (Domain.get_id d :> int) in
    Domain.join d;
    id
  in
  let before = probe () in
  let v = f () in
  (v, probe () - before - 1)

let inline_blif = P.Inline { format = "blif"; source = maj_blif }

let quick_synth = synth_op ~flows:[ "push_up" ] inline_blif

let member_str name j =
  match Json.member name j with Json.String s -> s | _ -> "?"

let error_code j = member_str "code" (Json.member "error" j)

let c17_path () =
  if Sys.file_exists "examples/c17.bench" then "examples/c17.bench"
  else "../examples/c17.bench"

(* A plain socket to the daemon, for writes the line client never makes
   (byte by byte, several requests at once); [Client.connect] first waits
   until the daemon listens. *)
let raw_connect path =
  Serve.Client.close (Serve.Client.connect path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd)

let write_all fd s =
  let rec go pos =
    if pos < String.length s then go (pos + Unix.write_substring fd s pos (String.length s - pos))
  in
  go 0

let e2e_tests =
  let open Alcotest in
  [
    test_case "cache hit is bit-identical to the cold response" `Quick
      (fun () ->
        let (), summary =
          with_server (fun path ->
              let c = Serve.Client.connect path in
              let cold = Serve.Client.rpc c (encode quick_synth) in
              let hot = Serve.Client.rpc c (encode quick_synth) in
              check string "cold is a miss" "miss" (member_str "cache" cold);
              check string "hot is a hit" "hit" (member_str "cache" hot);
              check string "stable bytes equal"
                (Json.to_string (P.strip_volatile cold))
                (Json.to_string (P.strip_volatile hot));
              check json "verified" (Json.Bool true)
                (Json.member "verified" (Json.member "result" hot));
              Serve.Client.close c)
        in
        check int "two requests + shutdown" 3 summary.Serve.Server.requests;
        check int "one hit" 1 summary.Serve.Server.cache.Serve.Cache.hits;
        check int "one miss" 1 summary.Serve.Server.cache.Serve.Cache.misses);
    test_case "responses are identical whatever the server --jobs" `Quick
      (fun () ->
        let run jobs =
          fst
            (with_server ~jobs (fun path ->
                 let c = Serve.Client.connect path in
                 let ops =
                   [
                     quick_synth;
                     synth_op ~algorithm:"steps" ~effort:2 inline_blif;
                     synth_op
                       ~flows:[ "push_up"; "omega_i; push_up" ]
                       ~jobs:2 inline_blif;
                   ]
                 in
                 let rs =
                   List.map
                     (fun op ->
                       Json.to_string
                         (P.strip_volatile (Serve.Client.rpc c (encode op))))
                     ops
                 in
                 Serve.Client.close c;
                 rs))
        in
        check (list string) "jobs=1 equals jobs=3" (run 1) (run 3));
    test_case "file and inline circuits share one cache line" `Quick (fun () ->
        let (), _ =
          with_server (fun path ->
              let file = c17_path () in
              let ic = open_in file in
              let source =
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              let c = Serve.Client.connect path in
              let r1 =
                Serve.Client.rpc c (encode (synth_op ~flows:[ "push_up" ] (P.File file)))
              in
              let r2 =
                Serve.Client.rpc c
                  (encode
                     (synth_op ~flows:[ "push_up" ]
                        (P.Inline { format = "bench"; source })))
              in
              check string "file request is a miss" "miss" (member_str "cache" r1);
              check string "inline request hits the same key" "hit"
                (member_str "cache" r2);
              check string "same stable bytes"
                (Json.to_string (P.strip_volatile r1))
                (Json.to_string (P.strip_volatile r2));
              Serve.Client.close c)
        in
        ());
    test_case "malformed input gets structured errors, daemon survives" `Quick
      (fun () ->
        let (), summary =
          with_server (fun path ->
              let c = Serve.Client.connect path in
              let roundtrip line =
                Serve.Client.send_line c line;
                Json.of_string (Serve.Client.recv_line c)
              in
              check string "garbage" "parse_error" (error_code (roundtrip "{nope"));
              check string "bad schema" "bad_schema"
                (error_code (roundtrip "{\"schema\":\"migsyn-serve/9\",\"op\":\"ping\"}"));
              check string "unknown op" "unsupported_op"
                (error_code
                   (roundtrip "{\"schema\":\"migsyn-serve/1\",\"op\":\"dance\"}"));
              let bad_flow =
                Serve.Client.rpc c
                  (encode (synth_op ~flows:[ "cycle(oops" ] inline_blif))
              in
              check string "bad flow script" "bad_request" (error_code bad_flow);
              let overflow =
                Serve.Client.rpc c
                  (encode
                     (synth_op
                        ~flows:[ "cycle(99999999999999999999){eliminate}" ]
                        inline_blif))
              in
              check string "overflowing cycle count" "bad_request"
                (error_code overflow);
              check string "overflow message carries the byte position"
                "flow script1: at byte 6: number too large"
                (member_str "message" (Json.member "error" overflow));
              let pong = Serve.Client.rpc c (encode P.Ping) in
              check string "serving after the overflow" "ok"
                (member_str "status" pong);
              let bad_alg =
                Serve.Client.rpc c
                  (encode (synth_op ~algorithm:"quantum" inline_blif))
              in
              check string "unknown algorithm" "bad_request" (error_code bad_alg);
              let huge_xbar =
                Serve.Client.rpc c
                  (encode
                     (synth_op ~algorithm:"steps" ~arch:"8x4611686018427387903"
                        ~cost:"xbar_devices_maj" inline_blif))
              in
              check string "overflowing crossbar" "bad_request"
                (error_code huge_xbar);
              check string "overflow message names the geometry"
                "crossbar 8x4611686018427387903 is too large: rows x columns \
                 exceeds 4611686018427387903 devices"
                (member_str "message" (Json.member "error" huge_xbar));
              let bad_file =
                Serve.Client.rpc c
                  (encode (synth_op ~flows:[ "push_up" ] (P.File "no/such.blif")))
              in
              check string "missing file" "io_error" (error_code bad_file);
              let bad_xbar =
                Serve.Client.rpc c
                  (encode (synth_op ~algorithm:"steps" ~arch:"1x1" inline_blif))
              in
              check string "impossible crossbar" "synthesis_failed"
                (error_code bad_xbar);
              (* the daemon is still alive and serving *)
              let pong = Serve.Client.rpc c (encode P.Ping) in
              check string "still serving" "ok" (member_str "status" pong);
              Serve.Client.close c)
        in
        check bool "errors were counted" true (summary.Serve.Server.errors >= 8));
    test_case "oversized request lines answer oversized" `Quick (fun () ->
        let (), _ =
          with_server ~max_request_bytes:4096 (fun path ->
              let c = Serve.Client.connect path in
              let big =
                Printf.sprintf
                  "{\"schema\":\"migsyn-serve/1\",\"op\":\"ping\",\"id\":\"%s\"}"
                  (String.make 8000 'x')
              in
              Serve.Client.send_line c big;
              let r = Json.of_string (Serve.Client.recv_line c) in
              check string "oversized" "oversized" (error_code r);
              Serve.Client.close c;
              (* a fresh connection still works *)
              let c2 = Serve.Client.connect path in
              let pong = Serve.Client.rpc c2 (encode P.Ping) in
              check string "still serving" "ok" (member_str "status" pong);
              Serve.Client.close c2)
        in
        ());
    test_case "a request written one byte per write is answered" `Quick (fun () ->
        let (), _ =
          with_server (fun path ->
              let fd, ic = raw_connect path in
              let line = P.encode_request { P.id = Some "slow"; op = P.Ping } ^ "\n" in
              String.iter
                (fun ch ->
                  write_all fd (String.make 1 ch);
                  Unix.sleepf 0.001)
                line;
              let r = Json.of_string (input_line ic) in
              check string "status" "ok" (member_str "status" r);
              check string "id" "slow" (member_str "id" r);
              Unix.close fd)
        in
        ());
    test_case "requests sharing one write are answered in order" `Quick (fun () ->
        let (), _ =
          with_server (fun path ->
              let fd, ic = raw_connect path in
              let ping id = P.encode_request { P.id = Some id; op = P.Ping } in
              write_all fd (ping "a" ^ "\n" ^ ping "b" ^ "\n" ^ ping "c" ^ "\r\n");
              List.iter
                (fun id ->
                  let r = Json.of_string (input_line ic) in
                  check string ("status " ^ id) "ok" (member_str "status" r);
                  check string "id" id (member_str "id" r))
                [ "a"; "b"; "c" ];
              Unix.close fd)
        in
        ());
    test_case "metrics expose request and cache counters" `Quick (fun () ->
        let (), _ =
          with_server (fun path ->
              let c = Serve.Client.connect path in
              ignore (Serve.Client.rpc c (encode quick_synth));
              ignore (Serve.Client.rpc c (encode quick_synth));
              let m = Serve.Client.rpc c (encode P.Metrics) in
              let result = Json.member "result" m in
              let cache = Json.member "cache" result in
              check json "hits" (Json.Int 1) (Json.member "hits" cache);
              check json "misses" (Json.Int 1) (Json.member "misses" cache);
              check json "entries" (Json.Int 1) (Json.member "entries" cache);
              (match Json.member "jobs" result with
              | Json.Int j -> check int "pool jobs" 2 j
              | _ -> fail "no jobs member");
              Serve.Client.close c)
        in
        ());
    test_case "shutdown op stops the daemon and unlinks the socket" `Quick
      (fun () ->
        let path_seen, summary =
          with_server (fun path ->
              let c = Serve.Client.connect path in
              let r = Serve.Client.rpc c (encode P.Shutdown) in
              check string "acknowledged" "ok" (member_str "status" r);
              Serve.Client.close c;
              path)
        in
        check bool "socket removed" false (Sys.file_exists path_seen);
        check int "one request" 1 summary.Serve.Server.requests;
        check int "ok" 1 summary.Serve.Server.ok);
    test_case "a ping-only daemon spawns no worker and still answers misses"
      `Quick (fun () ->
        let ((jobs, summary), spawned), results =
          Fun.protect ~finally:(fun () -> Obs.reset (); Obs.set_enabled false) @@ fun () ->
          Obs.set_enabled true;
          Obs.Manifest.start ~tool:"test" ~subcommand:"serve" ();
          let run =
            domains_spawned_by (fun () ->
                with_server ~jobs:2 (fun path ->
                    let c = Serve.Client.connect path in
                    let pong = Serve.Client.rpc c (encode P.Ping) in
                    check string "pong" "ok" (member_str "status" pong);
                    let m = Serve.Client.rpc c (encode P.Metrics) in
                    Serve.Client.close c;
                    Json.member "jobs" (Json.member "result" m)))
          in
          (run, Json.member "results" (Obs.Manifest.finish ()))
        in
        check json "metrics report jobs" (Json.Int 2) jobs;
        check int "only the daemon's own domain" 1 spawned;
        check int "ping, metrics, shutdown" 3 summary.Serve.Server.requests;
        check int "all ok" 3 summary.Serve.Server.ok;
        check json "manifest requests" (Json.Int 3) (Json.member "requests" results);
        check json "manifest cache misses" (Json.Int 0)
          (Json.member "misses" (Json.member "cache" results));
        let (), summary =
          with_server ~jobs:2 (fun path ->
              let c = Serve.Client.connect path in
              let r = Serve.Client.rpc c (encode quick_synth) in
              check string "miss answered" "ok" (member_str "status" r);
              check string "from the pool" "miss" (member_str "cache" r);
              Serve.Client.close c)
        in
        check int "one miss" 1 summary.Serve.Server.cache.Serve.Cache.misses);
    test_case "malformed netlists answer bad_request, daemon survives" `Quick
      (fun () ->
        let (), summary =
          with_server (fun path ->
              let c = Serve.Client.connect path in
              let inline format source =
                Serve.Client.rpc c
                  (encode (synth_op ~flows:[ "push_up" ] (P.Inline { format; source })))
              in
              List.iter
                (fun (format, source, message) ->
                  let r = inline format source in
                  check string (message ^ ": code") "bad_request" (error_code r);
                  check string (message ^ ": message") message
                    (member_str "message" (Json.member "error" r));
                  let pong = Serve.Client.rpc c (encode P.Ping) in
                  check string (message ^ ": still serving") "ok" (member_str "status" pong))
                [
                  ("bench", "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", "circuit:2: duplicate input a");
                  ("bench", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n",
                   "circuit:4: NOT takes one operand");
                  ("bench", "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a)\n",
                   "circuit:3: MAJ takes three operands");
                  ("blif", ".model m\n.inputs a a\n.outputs a\n.end\n",
                   "circuit:2: duplicate input a");
                  ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n",
                   "circuit:5: bad cube character 'x'");
                  ("pla", ".i 2\n.o 1\nx1 1\n", "circuit:3: bad cube character 'x'");
                  ("pla", ".i 2\n.o 1\n.ilb a a\n11 1\n", "circuit:3: duplicate input a");
                  ("pla", ".i two\n.o 1\n",
                   "circuit:1: .i needs a non-negative count, got \"two\"");
                  ("aag", "aag 3 x 0 1 1\n2\n4\n6\n6 2 4\n",
                   "circuit:1: expected 'aag M I L O A' header");
                  ("aag", "aag 3 2 0 1 1\n2\n40\n6\n6 2 4\n", "circuit:3: literal out of range");
                ];
              Serve.Client.close c)
        in
        check int "ten errors" 10 summary.Serve.Server.errors);
    test_case "xbar_* costs: migsyn flow --arch serial = daemon default" `Quick
      (fun () ->
        (* The daemon scores xbar_* costs against the request's arch, the
           unbounded-serial target when it names none; the CLI must do the
           same for --arch serial, not fall back to a 64x64 crossbar. *)
        let script = "strash; accept_if(xbar_devices_maj){push_up}" in
        let migsyn = "../bin/migsyn.exe" in
        let run args =
          let ic = Unix.open_process_args_in migsyn (Array.of_list (migsyn :: args)) in
          let out = In_channel.input_all ic in
          ignore (Unix.close_process_in ic);
          out
        in
        (* the `stats:` line of the CLI as (size, depth, R_maj, S_maj) *)
        let cli arch file =
          let out = run [ "flow"; "--arch"; arch; "-s"; script; "--stats"; "--no-verify"; file ] in
          let line =
            List.find (String.starts_with ~prefix:"stats: ") (String.split_on_char '\n' out)
          in
          Scanf.sscanf line "stats: size=%d depth=%d r_imp=%_d s_imp=%_d r_maj=%d s_maj=%d"
            (fun size depth r s -> (size, depth, r, s))
        in
        let circuit = Filename.temp_file "xw" ".bench" in
        Fun.protect
          ~finally:(fun () -> Sys.remove circuit)
          (fun () ->
            ignore (run [ "gen"; "--gates"; "4000"; "--seed"; "xw"; "-o"; circuit ]);
            let (), _ =
              with_server (fun path ->
                  let c = Serve.Client.connect path in
                  let r =
                    Json.member "result"
                      (Serve.Client.rpc c (encode (synth_op ~flows:[ script ] (P.File circuit))))
                  in
                  Serve.Client.close c;
                  let int name j = match Json.member name j with Json.Int n -> n | _ -> -1 in
                  let table1 = Json.member "table1" r in
                  let daemon =
                    (int "size" r, int "depth" r, int "rrams" table1, int "steps" table1)
                  in
                  let quad = Alcotest.(pair int (pair int (pair int int))) in
                  let nest (a, b, c, d) = (a, (b, (c, d))) in
                  check quad "CLI --arch serial = daemon" (nest daemon)
                    (nest (cli "serial" circuit));
                  (* not vacuous: a 64x64 crossbar accepts a different graph *)
                  check bool "64x64 differs" false (cli "64x64" circuit = daemon))
            in
            ()));
  ]

let () =
  Alcotest.run "serve"
    [
      ("protocol", protocol_tests);
      ("cache", cache_tests);
      ("canonical-keys", key_unit_tests);
      ("key-props", List.map QCheck_alcotest.to_alcotest key_props);
      ("e2e", e2e_tests);
    ]
