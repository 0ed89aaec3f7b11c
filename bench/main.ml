(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Section 7) on the synthetic SPEC stand-ins, and
   optionally runs Bechamel micro-benchmarks of the compiler algorithms
   themselves.

   Usage:
     bench/main.exe                 regenerate all tables and figures
     bench/main.exe table1 fig5l …  regenerate a subset
     bench/main.exe micro           Bechamel micro-benchmarks
     bench/main.exe serve-load      closed-loop load against a running
                                    `dmp serve` daemon

   Options:
     --socket PATH        serve-load: daemon socket (default dmp.sock)
     --clients N          serve-load: concurrent client connections
     --requests N         serve-load: requests per client
     -j/--jobs N          worker domains for the prefetch and the DMP
                          simulation batches (default: DMP_JOBS or the
                          recommended domain count); the report output
                          is byte-identical for every value
     --max-insts N        cap trace capture, profiling and simulation
                          at N instructions (quick smoke runs; also
                          fingerprints the _cache/ directory)
     --benchmarks A,B,…   restrict the suite to the named benchmarks
                          (smoke runs of a target on one workload)
     --timings            print a per-stage wall-clock summary to stderr
     --timings-json FILE  write the per-stage timings to FILE as JSON
     --no-cache           do not read or write the persistent _cache/
                          (traces, profiles, baseline and DMP statistics)
     --sim-segments N     split every DMP simulation into N segments at
                          checkpoint boundaries and fan them across the
                          pool; output stays byte-identical to the
                          unsegmented run
     --sim-sampling       interval sampling: simulate a warmup prefix
                          plus a representative window per segment and
                          extrapolate (fast, estimated statistics; see
                          the sim-fidelity target for the error)
     --sim-warmup N       sampled mode: warmup events per segment (≥ 0)
     --sim-window N       sampled mode: measured events per segment *)

open Dmp_experiments

(* Bechamel micro-benchmarks: the compile-time cost of each analysis
   stage on a real workload binary (gcc has the largest CFG). One
   Test.make per pipeline stage. *)
let micro () =
  let open Bechamel in
  let open Toolkit in
  let spec = Dmp_workload.Registry.find "gcc" in
  let linked = Dmp_workload.Spec.linked spec in
  let input = spec.Dmp_workload.Spec.input Dmp_workload.Input_gen.Reduced in
  let profile =
    Dmp_profile.Profile.collect ~max_insts:100_000 linked ~input
  in
  let trace =
    Dmp_exec.Trace.capture ~max_insts:100_000 linked ~input
  in
  let image = Dmp_exec.Image.of_trace trace in
  let annotation = Dmp_core.Select.run linked profile in
  let oracle_ann = Dmp_mpp.Oracle.annotation linked in
  let ctx = Dmp_core.Context.create linked profile in
  let sampling =
    { Dmp_sampling.Sampler.mode = Dmp_sampling.Sampler.Lbr 16;
      period = 1000; seed = 42 }
  in
  let sampler =
    Dmp_sampling.Sampler.collect_trace ~max_insts:100_000 ~config:sampling
      linked trace
  in
  let tests =
    [
      Test.make ~name:"context-build"
        (Staged.stage (fun () ->
             ignore (Dmp_core.Context.create linked profile)));
      Test.make ~name:"alg-exact"
        (Staged.stage (fun () -> ignore (Dmp_core.Alg_exact.find ctx)));
      Test.make ~name:"alg-freq"
        (Staged.stage (fun () -> ignore (Dmp_core.Alg_freq.find ctx)));
      Test.make ~name:"loop-select"
        (Staged.stage (fun () -> ignore (Dmp_core.Loop_select.find ctx)));
      Test.make ~name:"select-all-best-heur"
        (Staged.stage (fun () ->
             ignore (Dmp_core.Select.run linked profile)));
      Test.make ~name:"profile-100k"
        (Staged.stage (fun () ->
             ignore
               (Dmp_profile.Profile.collect ~max_insts:100_000 linked
                  ~input)));
      (* Sampled-profile pipeline, split into its two stages: walking
         the trace with the LBR sampler, and reconstructing a dense
         profile from the sparse samples by flow conservation. *)
      Test.make ~name:"sample-100k"
        (Staged.stage (fun () ->
             ignore
               (Dmp_sampling.Sampler.collect_trace ~max_insts:100_000
                  ~config:sampling linked trace)));
      Test.make ~name:"reconstruct-100k"
        (Staged.stage (fun () ->
             ignore (Dmp_sampling.Reconstruct.profile linked sampler)));
      Test.make ~name:"trace-capture-100k"
        (Staged.stage (fun () ->
             ignore
               (Dmp_exec.Trace.capture ~max_insts:100_000 linked ~input)));
      Test.make ~name:"simulate-100k-baseline-image"
        (Staged.stage (fun () ->
             ignore
               (Dmp_uarch.Sim.run_image ~config:Dmp_uarch.Config.baseline
                  ~max_insts:100_000 linked image)));
      Test.make ~name:"simulate-100k-dmp-image"
        (Staged.stage (fun () ->
             ignore
               (Dmp_uarch.Sim.run_image ~config:Dmp_uarch.Config.dmp
                  ~annotation ~max_insts:100_000 linked image)));
      (* The two other merge-point providers on the same image: the
         online Merge Point Table (training overhead included) and the
         oracle IPOSDOM annotation under the static machinery. *)
      Test.make ~name:"simulate-100k-dmp-dynamic"
        (Staged.stage (fun () ->
             ignore
               (Dmp_uarch.Sim.run_image
                  ~config:
                    (Dmp_uarch.Config.dmp_dynamic Dmp_mpp.Mpt.default)
                  ~max_insts:100_000 linked image)));
      Test.make ~name:"simulate-100k-dmp-oracle"
        (Staged.stage (fun () ->
             ignore
               (Dmp_uarch.Sim.run_image ~config:Dmp_uarch.Config.dmp
                  ~annotation:oracle_ann ~max_insts:100_000 linked image)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ())
          Instance.[ monotonic_clock ]
          test
      in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) ->
              Printf.printf "%-32s %12.0f ns/run\n" name est
          | Some [] | None -> Printf.printf "%-32s (no estimate)\n" name)
        analysis)
    tests

let valid_targets_msg () =
  Printf.sprintf "valid targets: %s"
    (String.concat ", " (Targets.all @ [ "micro"; "serve-load" ]))

let usage_error msg =
  Printf.eprintf "bench: %s\n%s\n" msg (valid_targets_msg ());
  exit 2

type opts = {
  mutable targets : string list;  (* reversed *)
  mutable timings : bool;
  mutable timings_json : string option;
  mutable jobs : int option;
  mutable max_insts : int option;
  mutable cache : bool;
  mutable benchmarks : string list option;
  mutable sim_segments : int option;
  mutable sim_sampling : bool;
  mutable sim_warmup : int;
  mutable sim_window : int;
  mutable socket : string;
  mutable clients : int;
  mutable requests : int;
}

let parse_args args =
  let o =
    { targets = []; timings = false; timings_json = None; jobs = None;
      max_insts = None; cache = true; benchmarks = None;
      sim_segments = None; sim_sampling = false;
      sim_warmup = Sim_fidelity.default_warmup;
      sim_window = Sim_fidelity.default_window;
      socket = "dmp.sock"; clients = 4; requests = 50 }
  in
  let int_at_least ~min ~what flag rest k =
    match rest with
    | n :: rest' -> (
        match int_of_string_opt n with
        | Some m when m >= min -> k m rest'
        | Some _ | None ->
            usage_error (Printf.sprintf "bad %s %S" flag n))
    | [] -> usage_error (Printf.sprintf "%s needs a %s integer" flag what)
  in
  let positive = int_at_least ~min:1 ~what:"positive" in
  let non_negative = int_at_least ~min:0 ~what:"non-negative" in
  let rec go = function
    | [] -> ()
    | "--timings" :: rest ->
        o.timings <- true;
        go rest
    | "--timings-json" :: rest -> (
        match rest with
        | file :: rest' ->
            o.timings_json <- Some file;
            go rest'
        | [] -> usage_error "--timings-json needs a file name")
    | "--no-cache" :: rest ->
        o.cache <- false;
        go rest
    | "--benchmarks" :: rest -> (
        match rest with
        | names :: rest' ->
            let names = String.split_on_char ',' names in
            List.iter
              (fun n ->
                if Dmp_workload.Registry.find_opt n = None then
                  usage_error (Printf.sprintf "unknown benchmark %S" n))
              names;
            if names = [] then usage_error "--benchmarks needs at least one";
            o.benchmarks <- Some names;
            go rest'
        | [] -> usage_error "--benchmarks needs a comma-separated list")
    | "--max-insts" :: rest -> (
        match rest with
        | n :: rest' -> (
            match int_of_string_opt n with
            | Some m when m > 0 ->
                o.max_insts <- Some m;
                go rest'
            | Some _ | None ->
                usage_error (Printf.sprintf "bad instruction cap %S" n))
        | [] -> usage_error "--max-insts needs a positive integer")
    | ("-j" | "--jobs") :: rest -> (
        match rest with
        | n :: rest' -> (
            match int_of_string_opt n with
            | Some j when j > 0 ->
                o.jobs <- Some j;
                go rest'
            | Some _ | None ->
                usage_error (Printf.sprintf "bad job count %S" n))
        | [] -> usage_error "-j/--jobs needs a positive integer")
    | "--sim-segments" :: rest ->
        positive "--sim-segments" rest (fun n rest' ->
            o.sim_segments <- Some n;
            go rest')
    | "--sim-sampling" :: rest ->
        o.sim_sampling <- true;
        go rest
    | "--sim-warmup" :: rest ->
        non_negative "--sim-warmup" rest (fun n rest' ->
            o.sim_warmup <- n;
            go rest')
    | "--sim-window" :: rest ->
        positive "--sim-window" rest (fun n rest' ->
            o.sim_window <- n;
            go rest')
    | "--socket" :: rest -> (
        match rest with
        | path :: rest' ->
            o.socket <- path;
            go rest'
        | [] -> usage_error "--socket needs a path")
    | "--clients" :: rest ->
        positive "--clients" rest (fun n rest' ->
            o.clients <- n;
            go rest')
    | "--requests" :: rest ->
        positive "--requests" rest (fun n rest' ->
            o.requests <- n;
            go rest')
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        usage_error ("unknown option " ^ flag)
    | target :: rest ->
        o.targets <- target :: o.targets;
        go rest
  in
  go args;
  o.targets <- List.rev o.targets;
  o

(* Closed-loop load generator against a running `dmp serve` daemon:
   every client thread keeps exactly one request outstanding on its own
   connection, cycling phase-shifted through the benchmark list (so
   concurrent clients regularly collide on the same key and exercise
   the daemon's coalescing). Client-observed and server-reported
   latency land in two histograms; the summary line carries achieved
   throughput. *)
let serve_load o =
  let module C = Dmp_serve.Client in
  let module P = Dmp_serve.Protocol in
  let module H = Dmp_serve.Histogram in
  let benches =
    Option.value o.benchmarks ~default:[ "gzip"; "mcf" ] |> Array.of_list
  in
  let client_h = H.create () and server_h = H.create () in
  let errors = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker i =
    match C.connect_unix ~wait_s:10. o.socket with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "bench: serve-load: cannot connect to %s: %s\n"
          o.socket (Unix.error_message e);
        Atomic.fetch_and_add errors o.requests |> ignore
    | conn ->
        Fun.protect
          ~finally:(fun () -> C.close conn)
          (fun () ->
            for j = 0 to o.requests - 1 do
              let bench = benches.((i + j) mod Array.length benches) in
              let req =
                P.Run { bench; set = "reduced"; algo = "all-best-heur" }
              in
              let r0 = Unix.gettimeofday () in
              match C.request conn req with
              | Ok { P.ok = true; latency_ns; _ } ->
                  H.record client_h
                    (int_of_float ((Unix.gettimeofday () -. r0) *. 1e9));
                  H.record server_h latency_ns
              | Ok { P.ok = false; _ } | Error _ -> Atomic.incr errors
            done)
  in
  let threads = List.init o.clients (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let sent = o.clients * o.requests in
  let ok = sent - Atomic.get errors in
  Printf.printf
    "serve-load: socket=%s clients=%d requests=%d ok=%d errors=%d \
     wall=%.3fs throughput=%.1f req/s\n"
    o.socket o.clients sent ok (Atomic.get errors) wall
    (float_of_int ok /. wall);
  Printf.printf "client latency: %s\n" (H.summary client_h);
  Printf.printf "server latency: %s\n" (H.summary server_h);
  if Atomic.get errors > 0 then exit 1

let sim_mode_of o =
  if o.sim_sampling then
    Runner.Sampled
      {
        segments =
          Option.value o.sim_segments ~default:Sim_fidelity.default_segments;
        warmup = o.sim_warmup;
        window = o.sim_window;
      }
  else
    match o.sim_segments with
    | Some n -> Runner.Segmented n
    | None -> Runner.Exact

let () =
  (* Reject a malformed DMP_JOBS before any work starts; -j overrides a
     valid value but a value that does not parse is an error. *)
  (match Dmp_exec.Pool.env_jobs () with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2);
  (match Disk_cache.env_max_bytes () with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2);
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  match o.targets with
  | [ "micro" ] -> micro ()
  | [ "serve-load" ] -> serve_load o
  | requested ->
      let targets = if requested = [] then Targets.all else requested in
      let known, unknown = List.partition Targets.is_valid targets in
      List.iter
        (fun t -> Printf.eprintf "bench: unknown target %s\n" t)
        unknown;
      if unknown <> [] then prerr_endline (valid_targets_msg ());
      if known = [] then exit 2;
      let runner =
        Runner.create
          ?benchmarks:
            (Option.map
               (List.map Dmp_workload.Registry.find)
               o.benchmarks)
          ?cache_dir:(if o.cache then Some "_cache" else None)
          ?max_insts:o.max_insts ?jobs:o.jobs ~sim_mode:(sim_mode_of o) ()
      in
      Runner.prefetch ~profile_sets:(Targets.profile_sets known) runner;
      List.iter
        (fun t ->
          match Targets.render runner t with
          | Ok s ->
              print_string s;
              print_newline ()
          | Error msg -> Printf.eprintf "bench: %s\n" msg)
        known;
      if o.timings then prerr_string (Runner.timing_summary runner);
      Option.iter
        (fun file ->
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Runner.timings_json runner)))
        o.timings_json;
      if unknown <> [] then exit 2
