(* Tests for the serving layer: histogram accuracy, wire-protocol
   robustness (decoders never raise, a live server survives garbage),
   the LRU cache against a reference model, request coalescing
   (exactly one pipeline execution for K concurrent identical
   requests), and the daemon-vs-offline-CLI byte-identity oracle. *)

open Dmp_serve
open Dmp_workload
open Dmp_experiments

let check = Alcotest.check

(* ---------- histogram ---------- *)

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 0; 1; 5; 31 ];
  check Alcotest.int "count" 4 (Histogram.count h);
  check Alcotest.int "max exact" 31 (Histogram.max_ns h);
  check Alcotest.int "p100 = max" 31 (Histogram.percentile h 100.);
  check Alcotest.int "p25 = smallest value" 0 (Histogram.percentile h 25.);
  check Alcotest.int "p50 = second value" 1 (Histogram.percentile h 50.);
  check Alcotest.int "empty percentile" 0
    (Histogram.percentile (Histogram.create ()) 50.)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h (i * 1000)
  done;
  let within pct target v =
    abs (v - target) <= target * pct / 100
  in
  check Alcotest.bool "p50 within 4%" true
    (within 4 500_000 (Histogram.percentile h 50.));
  check Alcotest.bool "p90 within 4%" true
    (within 4 900_000 (Histogram.percentile h 90.));
  check Alcotest.bool "p99 within 4%" true
    (within 4 990_000 (Histogram.percentile h 99.));
  check Alcotest.int "max exact" 1_000_000 (Histogram.max_ns h)

(* A percentile reports its bucket's inclusive upper bound, so it can
   only err high, and by at most 1/32 of the value (the sub-bucket
   width). The second, larger recording keeps p50 pointed at [v]. *)
let hist_error_prop =
  QCheck.Test.make ~name:"bucket error bounded by 1/32" ~count:500
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      Histogram.record h ((2 * v) + 64);
      let p = Histogram.percentile h 50. in
      p >= v && p <= v + (v / 32) + 1)

(* ---------- protocol codecs ---------- *)

let test_protocol_roundtrip () =
  List.iter
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> check Alcotest.bool "request roundtrip" true (r = r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      Protocol.Annotate
        { bench = "gzip"; set = "reduced"; algo = "all-best-heur" };
      Protocol.Profile { bench = ""; set = "x y \n z" };
      Protocol.Run { bench = "a"; set = "b"; algo = "c" };
      Protocol.Stats;
    ];
  List.iter
    (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> check Alcotest.bool "response roundtrip" true (r = r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      { Protocol.ok = true; latency_ns = 0; body = "" };
      { Protocol.ok = false; latency_ns = 123_456_789; body = "boom\nboom" };
    ]

let proto_request_roundtrip_prop =
  QCheck.Test.make ~name:"request roundtrip (arbitrary fields)" ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 80)) (string_of_size Gen.(0 -- 80))
              (string_of_size Gen.(0 -- 80)))
    (fun (bench, set, algo) ->
      let r = Protocol.Run { bench; set; algo } in
      Protocol.decode_request (Protocol.encode_request r) = Ok r)

let proto_fuzz_request_prop =
  QCheck.Test.make ~name:"decode_request never raises" ~count:2000
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      match Protocol.decode_request s with Ok _ | Error _ -> true)

let proto_fuzz_response_prop =
  QCheck.Test.make ~name:"decode_response never raises" ~count:2000
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      match Protocol.decode_response s with Ok _ | Error _ -> true)

(* ---------- Mem_cache vs a reference LRU model ---------- *)

(* The cache's observable state (key order MRU-first, accounted bytes)
   must track a straightforward list model through any sequence of
   add / find / remove, and the byte budget must hold after every
   step. *)
let mem_cache_model_prop =
  let budget = 150 in
  let rec drop_last = function
    | [] | [ _ ] -> []
    | x :: tl -> x :: drop_last tl
  in
  QCheck.Test.make ~name:"LRU matches reference model" ~count:300
    QCheck.(
      list_of_size
        Gen.(0 -- 40)
        (triple (int_bound 2) (int_bound 7) (int_bound 100)))
    (fun ops ->
      let cache = Mem_cache.create ~budget ~name:"model-test" () in
      let model = ref [] in
      let total m = List.fold_left (fun a (_, s) -> a + s) 0 m in
      List.for_all
        (fun (op, ki, size) ->
          let key = "k" ^ string_of_int ki in
          (match op with
          | 0 ->
              Mem_cache.add cache key ~size size;
              model := (key, size) :: List.remove_assoc key !model;
              while total !model > budget && !model <> [] do
                model := drop_last !model
              done
          | 1 ->
              let hit = Mem_cache.find cache key <> None in
              let model_hit = List.mem_assoc key !model in
              if model_hit then begin
                let s = List.assoc key !model in
                model := (key, s) :: List.remove_assoc key !model
              end;
              if hit <> model_hit then failwith "hit mismatch"
          | _ ->
              Mem_cache.remove cache key;
              model := List.remove_assoc key !model);
          let s = Mem_cache.stats cache in
          Mem_cache.keys cache = List.map fst !model
          && s.Mem_cache.bytes = total !model
          && s.Mem_cache.bytes <= budget
          && s.Mem_cache.entries = List.length !model)
        ops)

let test_mem_cache_counters () =
  let c = Mem_cache.create ~budget:100 ~name:"counters" () in
  Mem_cache.add c "a" ~size:60 1;
  Mem_cache.add c "b" ~size:60 2;
  (* b's add pushed a out *)
  let s = Mem_cache.stats c in
  check Alcotest.int "evictions" 1 s.Mem_cache.evictions;
  check Alcotest.bool "a evicted" true (Mem_cache.find c "a" = None);
  check Alcotest.bool "b live" true (Mem_cache.find c "b" = Some 2);
  let s = Mem_cache.stats c in
  check Alcotest.int "hits" 1 s.Mem_cache.hits;
  check Alcotest.int "misses" 1 s.Mem_cache.misses;
  check Alcotest.bool "oversized entry rejected" true
    (Mem_cache.add c "huge" ~size:1000 3;
     Mem_cache.mem c "huge" = false)

(* ---------- service: coalescing and byte-identity ---------- *)

let small_service ?compute_hook () =
  Service.create
    ~benchmarks:[ Registry.find "li" ]
    ~max_insts:40_000 ?compute_hook ()

(* K concurrent identical requests: exactly one pipeline execution,
   K-1 coalesced waiters, byte-identical bodies. The single computer
   blocks inside [compute_hook] until every other request has joined
   it, which makes the coalescing counter deterministic rather than
   scheduling-dependent. *)
let coalesce_k k () =
  let svc_ref = ref None in
  let executions = Atomic.make 0 in
  let hook _key =
    Atomic.incr executions;
    let svc = Option.get !svc_ref in
    let deadline = Unix.gettimeofday () +. 10. in
    while
      Service.coalesced svc < k - 1 && Unix.gettimeofday () < deadline
    do
      Thread.yield ()
    done
  in
  let svc = small_service ~compute_hook:hook () in
  svc_ref := Some svc;
  let req =
    Protocol.Run { bench = "li"; set = "reduced"; algo = "all-best-heur" }
  in
  let results = Array.make k (Error "unset") in
  let threads =
    List.init k (fun i ->
        Thread.create
          (fun () ->
            let r, _ = Service.respond svc req in
            results.(i) <- r)
          ())
  in
  List.iter Thread.join threads;
  check Alcotest.int "exactly one execution" 1 (Atomic.get executions);
  check Alcotest.int "k-1 coalesced" (k - 1) (Service.coalesced svc);
  let body = function
    | Ok b -> b
    | Error e -> Alcotest.failf "request failed: %s" e
  in
  let first = body results.(0) in
  check Alcotest.bool "body non-empty" true (String.length first > 0);
  Array.iter
    (fun r -> check Alcotest.bool "byte-identical bodies" true
        (body r = first))
    results;
  let calls stage =
    match
      List.find_opt
        (fun (s, _, _) -> s = stage)
        (Runner.timings (Service.runner svc))
    with
    | Some (_, c, _) -> c
    | None -> 0
  in
  check Alcotest.int "one dmp simulation" 1 (calls "dmp (simulate)");
  check Alcotest.int "one baseline simulation" 1
    (calls "baseline (simulate)");
  check Alcotest.int "one selection" 1 (calls "select (run)")

let test_service_coalesce_2 = coalesce_k 2
let test_service_coalesce_8 = coalesce_k 8

let test_service_warm_hit () =
  let svc = small_service () in
  let req =
    Protocol.Run { bench = "li"; set = "reduced"; algo = "all-best-heur" }
  in
  let r1, _ = Service.respond svc req in
  let r2, _ = Service.respond svc req in
  check Alcotest.bool "identical warm body" true (r1 = r2);
  let s = Service.response_stats svc in
  check Alcotest.int "warm hit counted" 1 s.Mem_cache.hits;
  check Alcotest.int "one miss" 1 s.Mem_cache.misses

(* A daemon restarted on the same cache directory answers a run and an
   annotate request from the statistics and selections the first one
   persisted: byte-identical bodies, no simulation and no selection. *)
let test_service_restart_warm () =
  Helpers.with_temp_cache_dir (fun dir ->
      let reqs =
        [
          Protocol.Run
            { bench = "li"; set = "reduced"; algo = "all-best-heur" };
          Protocol.Annotate
            { bench = "li"; set = "reduced"; algo = "cost-edge" };
        ]
      in
      let serve () =
        let svc =
          Service.create ~benchmarks:[ Registry.find "li" ] ~max_insts:40_000
            ~cache_dir:dir ()
        in
        let bodies =
          List.map
            (fun req ->
              match Service.respond svc req with
              | Ok body, _ -> body
              | Error e, _ -> Alcotest.failf "request failed: %s" e)
            reqs
        in
        (bodies, Runner.timings (Service.runner svc))
      in
      let has_row timings stage =
        List.exists (fun (s, _, _) -> s = stage) timings
      in
      let bodies1, timings1 = serve () in
      check Alcotest.bool "first daemon simulates" true
        (has_row timings1 "dmp (simulate)");
      check Alcotest.bool "first daemon selects" true
        (has_row timings1 "select (run)");
      let bodies2, timings2 = serve () in
      check Alcotest.bool "restarted daemon answers byte-identically" true
        (bodies1 = bodies2);
      check Alcotest.bool "restarted daemon does not simulate" false
        (has_row timings2 "dmp (simulate)");
      check Alcotest.bool "restarted daemon does not select" false
        (has_row timings2 "select (run)");
      check Alcotest.bool "restarted daemon reads the disk cache" true
        (has_row timings2 "dmp (disk cache)"
        && has_row timings2 "select (disk cache)"))

let test_service_errors () =
  let svc = small_service () in
  let is_error = function Error _, _ -> true | Ok _, _ -> false in
  check Alcotest.bool "unknown benchmark" true
    (is_error
       (Service.respond svc
          (Protocol.Run
             { bench = "nope"; set = "reduced"; algo = "all-best-heur" })));
  check Alcotest.bool "unknown set" true
    (is_error
       (Service.respond svc
          (Protocol.Profile { bench = "li"; set = "tiny" })));
  check Alcotest.bool "unknown algo" true
    (is_error
       (Service.respond svc
          (Protocol.Annotate
             { bench = "li"; set = "reduced"; algo = "wat" })));
  (* errors are counted but never cached *)
  let s = Service.response_stats svc in
  check Alcotest.int "nothing cached" 0 s.Mem_cache.entries

(* The daemon serves through the runner's replay pipeline; the offline
   CLI computes live. Both must render byte-identical reports — the
   differential oracle behind the CI's daemon-vs-CLI cmp. *)
let test_service_matches_live () =
  let max_insts = 40_000 in
  let benches = [ "li"; "vpr" ] in
  let algos =
    match Variants.names with a :: b :: _ -> [ a; b ] | l -> l
  in
  let svc =
    Service.create
      ~benchmarks:(List.map Registry.find benches)
      ~max_insts ()
  in
  List.iter
    (fun bench ->
      let spec = Registry.find bench in
      let linked = Spec.linked spec in
      let input = spec.Spec.input Input_gen.Reduced in
      let profile = Dmp_profile.Profile.collect linked ~input ~max_insts in
      (* profile request *)
      let live_profile = Render.profile_text linked profile in
      (match
         Service.respond svc (Protocol.Profile { bench; set = "reduced" })
       with
      | Ok body, _ ->
          check Alcotest.bool
            (bench ^ " profile byte-identical")
            true (body = live_profile)
      | Error e, _ -> Alcotest.failf "profile failed: %s" e);
      List.iter
        (fun algo ->
          let variant = Option.get (Variants.of_string algo) in
          let ann = Variants.annotate variant linked profile in
          (* annotate request *)
          let live_ann = Render.annotate_text ~algo ann in
          (match
             Service.respond svc
               (Protocol.Annotate { bench; set = "reduced"; algo })
           with
          | Ok body, _ ->
              check Alcotest.bool
                (bench ^ "/" ^ algo ^ " annotate byte-identical")
                true (body = live_ann)
          | Error e, _ -> Alcotest.failf "annotate failed: %s" e);
          (* run request *)
          let base =
            Dmp_uarch.Sim.run ~config:Dmp_uarch.Config.baseline ~max_insts
              linked ~input
          in
          let dmp =
            Dmp_uarch.Sim.run ~config:Dmp_uarch.Config.dmp ~annotation:ann
              ~max_insts linked ~input
          in
          let live_run = Render.run_text ~algo ~ann ~base ~dmp in
          match
            Service.respond svc
              (Protocol.Run { bench; set = "reduced"; algo })
          with
          | Ok body, _ ->
              check Alcotest.bool
                (bench ^ "/" ^ algo ^ " run byte-identical")
                true (body = live_run)
          | Error e, _ -> Alcotest.failf "run failed: %s" e)
        algos)
    benches

(* The response-LRU key audit: run responses are keyed per algorithm,
   but behaviourally identical selections share one simulation through
   the runner's fingerprint memo. Whether or not the two algorithms
   alias on this workload, every computed run must be audited and the
   simulation count must equal the number of distinct fingerprints. *)
let test_service_fingerprint_audit () =
  let svc = small_service () in
  let run algo = Protocol.Run { bench = "li"; set = "reduced"; algo } in
  let respond_ok req =
    match Service.respond svc req with
    | Ok _, _ -> ()
    | Error e, _ -> Alcotest.failf "run failed: %s" e
  in
  respond_ok (run "all-best-heur");
  check
    Alcotest.(pair int int)
    "one algorithm, one fingerprint" (1, 0)
    (Service.fingerprint_audit svc);
  respond_ok (run "all-best-heur");
  check
    Alcotest.(pair int int)
    "cached repeat is not re-audited" (1, 0)
    (Service.fingerprint_audit svc);
  respond_ok (run "all-best-cost");
  let fps, aliased = Service.fingerprint_audit svc in
  check Alcotest.int "every computed run audited" 2 (fps + aliased);
  let calls stage =
    match
      List.find_opt
        (fun (s, _, _) -> s = stage)
        (Runner.timings (Service.runner svc))
    with
    | Some (_, c, _) -> c
    | None -> 0
  in
  check Alcotest.int "simulations = distinct fingerprints" fps
    (calls "dmp (simulate)");
  check Alcotest.int "aliased runs answered by the memo" aliased
    (calls "dmp (dedup hit)");
  match Service.respond svc Protocol.Stats with
  | Error e, _ -> Alcotest.failf "stats failed: %s" e
  | Ok text, _ ->
      let needle =
        Printf.sprintf "selections: fingerprints=%d aliased-runs=%d" fps aliased
      in
      check Alcotest.bool "stats_text reports the audit" true
        (let len = String.length needle in
         let n = String.length text in
         let rec go i =
           i + len <= n && (String.sub text i len = needle || go (i + 1))
         in
         go 0)

let test_service_stats_text () =
  let svc = small_service () in
  ignore
    (Service.respond svc
       (Protocol.Annotate
          { bench = "li"; set = "reduced"; algo = "all-best-heur" }));
  let r, _ = Service.respond svc Protocol.Stats in
  match r with
  | Error e -> Alcotest.failf "stats failed: %s" e
  | Ok text ->
      List.iter
        (fun needle ->
          check Alcotest.bool ("stats mentions " ^ needle) true
            (let len = String.length needle in
             let n = String.length text in
             let rec go i =
               i + len <= n && (String.sub text i len = needle || go (i + 1))
             in
             go 0))
        [
          "== dmp serve stats ==";
          "mem cache (responses):";
          "mem cache (stages):";
          "latency annotate";
          "latency run";
          "select (run)";
        ]

(* ---------- socket server: end-to-end and adversarial frames ---------- *)

let with_server f =
  let dir = Filename.temp_file "dmp_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "d.sock" in
  let service = small_service () in
  let server = Server.create ~service ~unix_path:path () in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th;
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f path service)

let raw_connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  fd

let test_server_end_to_end () =
  with_server (fun path svc ->
      let c = Client.connect_unix ~wait_s:5. path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let req =
            Protocol.Run
              { bench = "li"; set = "reduced"; algo = "all-best-heur" }
          in
          match Client.request c req with
          | Ok { Protocol.ok = true; body; _ } ->
              let direct =
                match Service.respond svc req with
                | Ok b, _ -> b
                | Error e, _ -> Alcotest.failf "direct failed: %s" e
              in
              check Alcotest.bool "socket body = direct body" true
                (body = direct);
              (* same connection, second request: warm, identical *)
              (match Client.request c req with
              | Ok { Protocol.ok = true; body = body2; _ } ->
                  check Alcotest.bool "warm body identical" true
                    (body2 = body)
              | _ -> Alcotest.fail "second request failed");
              (* server-side error comes back as ok=false, not a
                 transport failure *)
              (match
                 Client.request c
                   (Protocol.Run
                      { bench = "nope"; set = "reduced"; algo = "x" })
               with
              | Ok { Protocol.ok = false; body; _ } ->
                  check Alcotest.bool "error mentions benchmark" true
                    (String.length body > 0)
              | _ -> Alcotest.fail "expected served error")
          | _ -> Alcotest.fail "first request failed"))

let test_server_survives_garbage () =
  with_server (fun path _ ->
      (* garbage payload: error response, connection survives *)
      let fd = raw_connect path in
      Protocol.write_frame fd "\xff\xfe\x00garbage";
      (match Protocol.read_frame ~max:Protocol.max_response_frame fd with
      | `Frame s -> (
          match Protocol.decode_response s with
          | Ok { Protocol.ok = false; _ } -> ()
          | _ -> Alcotest.fail "expected error response to garbage")
      | _ -> Alcotest.fail "no response to garbage");
      (* the same connection still serves a valid request *)
      Protocol.write_frame fd (Protocol.encode_request Protocol.Stats);
      (match Protocol.read_frame ~max:Protocol.max_response_frame fd with
      | `Frame s -> (
          match Protocol.decode_response s with
          | Ok { Protocol.ok = true; _ } -> ()
          | _ -> Alcotest.fail "valid request after garbage failed")
      | _ -> Alcotest.fail "no response after garbage");
      Unix.close fd;
      (* oversized length prefix: error response, then close *)
      let fd = raw_connect path in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int 100_000_000);
      ignore (Unix.write fd hdr 0 4);
      (match Protocol.read_frame ~max:Protocol.max_response_frame fd with
      | `Frame s -> (
          match Protocol.decode_response s with
          | Ok { Protocol.ok = false; _ } -> ()
          | _ -> Alcotest.fail "expected error response to oversize")
      | _ -> Alcotest.fail "no response to oversized frame");
      (match Protocol.read_frame ~max:Protocol.max_response_frame fd with
      | `Eof -> ()
      | _ -> Alcotest.fail "connection should close after oversize");
      Unix.close fd;
      (* truncated frame: clean close on the server side, daemon
         stays up *)
      let fd = raw_connect path in
      ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
      Unix.close fd;
      (* connect-and-quit *)
      let fd = raw_connect path in
      Unix.close fd;
      (* after all of the above, the daemon still answers *)
      let c = Client.connect_unix ~wait_s:5. path in
      (match Client.request c Protocol.Stats with
      | Ok { Protocol.ok = true; _ } -> ()
      | _ -> Alcotest.fail "daemon died after adversarial input");
      Client.close c)

let qcheck q = QCheck_alcotest.to_alcotest q

let () =
  Alcotest.run "dmp_serve"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact small values" `Quick
            test_histogram_exact_small;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          qcheck hist_error_prop;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          qcheck proto_request_roundtrip_prop;
          qcheck proto_fuzz_request_prop;
          qcheck proto_fuzz_response_prop;
        ] );
      ( "mem cache",
        [
          qcheck mem_cache_model_prop;
          Alcotest.test_case "counters" `Quick test_mem_cache_counters;
        ] );
      ( "service",
        [
          Alcotest.test_case "coalesce 2" `Slow test_service_coalesce_2;
          Alcotest.test_case "coalesce 8" `Slow test_service_coalesce_8;
          Alcotest.test_case "warm hit" `Slow test_service_warm_hit;
          Alcotest.test_case "restart on a warm cache" `Slow
            test_service_restart_warm;
          Alcotest.test_case "validation errors" `Quick test_service_errors;
          Alcotest.test_case "byte-identical to live CLI" `Slow
            test_service_matches_live;
          Alcotest.test_case "stats text" `Slow test_service_stats_text;
          Alcotest.test_case "fingerprint audit" `Slow
            test_service_fingerprint_audit;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Slow test_server_end_to_end;
          Alcotest.test_case "survives garbage" `Slow
            test_server_survives_garbage;
        ] );
    ]
