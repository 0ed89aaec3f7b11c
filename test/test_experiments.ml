open Dmp_experiments
open Dmp_workload

let check = Alcotest.check

(* A tiny runner over two benchmarks with capped simulations keeps the
   suite fast. *)
let small_runner () =
  Runner.create
    ~benchmarks:[ Registry.find "vpr"; Registry.find "li" ]
    ~max_insts:120_000 ()

let test_runner_caching () =
  let r = small_runner () in
  let p1 = Runner.profile r "vpr" Input_gen.Reduced in
  let p2 = Runner.profile r "vpr" Input_gen.Reduced in
  check Alcotest.bool "profile cached (physical equality)" true (p1 == p2);
  let b1 = Runner.baseline r "vpr" in
  let b2 = Runner.baseline r "vpr" in
  check Alcotest.bool "baseline cached" true (b1 == b2)

let test_runner_unknown () =
  let r = small_runner () in
  Alcotest.check_raises "unknown benchmark"
    (Invalid_argument "Runner: unknown benchmark nope") (fun () ->
      ignore (Runner.linked r "nope"))

let test_amean () =
  check (Alcotest.float 1e-9) "mean" 2. (Runner.amean [ 1.; 2.; 3. ]);
  check (Alcotest.float 1e-9) "empty" 0. (Runner.amean [])

let test_variants_lookup () =
  List.iter
    (fun name ->
      match Variants.of_string name with
      | Some _ -> ()
      | None -> Alcotest.failf "variant %s not found" name)
    Variants.names;
  check Alcotest.bool "unknown variant" true (Variants.of_string "x" = None)

let test_table2 () =
  let r = small_runner () in
  let rows = Table2.compute r in
  check Alcotest.int "one row per benchmark" 2 (List.length rows);
  List.iter
    (fun row ->
      check Alcotest.bool "ipc positive" true (row.Table2.base_ipc > 0.);
      check Alcotest.bool "has static branches" true
        (row.Table2.static_branches > 0);
      check Alcotest.bool "diverge branches selected" true
        (row.Table2.diverge_branches > 0);
      check Alcotest.bool "avg cfm in [1, max_cfm]" true
        (row.Table2.avg_cfm >= 1.
         && row.Table2.avg_cfm
            <= float_of_int Dmp_core.Params.default.Dmp_core.Params.max_cfm))
    rows;
  let rendered = Table2.render rows in
  check Alcotest.bool "render mentions benchmarks" true
    (Astring_contains.contains rendered "vpr"
     && Astring_contains.contains rendered "li")

let test_fig5_left () =
  let r = small_runner () in
  let fig = Fig5.left r in
  check Alcotest.int "five series" 5 (List.length fig.Report.series);
  List.iter
    (fun s ->
      check Alcotest.int "value per benchmark" 2
        (List.length s.Report.values))
    fig.Report.series;
  (* all-best-heur must beat exact alone on these hammock-heavy
     benchmarks *)
  let mean label =
    Report.mean_of
      (List.find (fun s -> s.Report.label = label) fig.Report.series)
  in
  check Alcotest.bool "cumulative techniques help" true
    (mean "all-best-h" >= mean "exact")

let test_fig10_percentages () =
  let r = small_runner () in
  List.iter
    (fun row ->
      let total =
        row.Fig10.pct_only_run +. row.Fig10.pct_only_train
        +. row.Fig10.pct_either
      in
      check Alcotest.bool "sums to 100" true (abs_float (total -. 100.) < 1e-6))
    (Fig10.run r)

let test_fig7_grid () =
  let r = small_runner () in
  let points =
    Fig7.run ~max_instrs:[ 10; 50 ] ~merge_probs:[ 0.01; 0.9 ] r
  in
  check Alcotest.int "grid size" 4 (List.length points);
  let rendered = Fig7.render points in
  check Alcotest.bool "mentions MAX_INSTR" true
    (Astring_contains.contains rendered "MAX_INSTR")

(* ---------- parallel prefetch and the persistent cache ---------- *)

let profile_bytes p = Marshal.to_string (Dmp_profile.Profile.to_raw p) []
let stats_bytes (s : Dmp_uarch.Stats.t) = Marshal.to_string s []

let quad_benchmarks () =
  [ Registry.find "vpr"; Registry.find "li"; Registry.find "gzip";
    Registry.find "mcf" ]

(* A 4-worker prefetch must produce byte-identical profiles and
   baseline statistics to a purely sequential run: program construction
   is domain-local and order-independent, and every stage is keyed, not
   raced. *)
let test_parallel_prefetch_equivalence () =
  let seq = Runner.create ~benchmarks:(quad_benchmarks ()) ~max_insts:80_000 () in
  let par = Runner.create ~benchmarks:(quad_benchmarks ()) ~max_insts:80_000 () in
  List.iter
    (fun name ->
      ignore (Runner.profile seq name Input_gen.Reduced);
      ignore (Runner.baseline seq name))
    (Runner.names seq);
  Runner.prefetch ~jobs:4 par;
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ ": profile bytes identical") true
        (profile_bytes (Runner.profile seq name Input_gen.Reduced)
        = profile_bytes (Runner.profile par name Input_gen.Reduced));
      check Alcotest.bool (name ^ ": baseline bytes identical") true
        (stats_bytes (Runner.baseline seq name)
        = stats_bytes (Runner.baseline par name)))
    (Runner.names seq)

let stage_calls runner stage =
  match
    List.find_opt (fun (s, _, _) -> s = stage) (Runner.timings runner)
  with
  | Some (_, calls, _) -> calls
  | None -> 0

(* [ann] rebuilt with every merge probability changed: selection
   metadata the simulator never reads, so the twin compiles to the same
   behavioural fingerprint and the batch dedups it with [ann]. *)
let meta_tweaked ann =
  let a = Dmp_core.Annotation.empty () in
  Dmp_core.Annotation.fold
    (fun d () ->
      Dmp_core.Annotation.add a
        {
          d with
          Dmp_core.Annotation.cfms =
            List.map
              (fun c -> { c with Dmp_core.Annotation.merge_prob = 0.123 })
              d.Dmp_core.Annotation.cfms;
        })
    ann ();
  a

(* The DMP sweep itself must be jobs-invariant: a 4-worker dmp_batch
   returns the same statistics in the same order as the inline [-j 1]
   runner, and both match sequential per-task [dmp] calls. A repeated
   task and a metadata-only twin make the batch dedup, so every slot of
   a deduped group must still receive its own task's statistics. *)
let test_parallel_dmp_batch_equivalence () =
  let mk jobs =
    Runner.create ~benchmarks:(quad_benchmarks ()) ~max_insts:80_000 ~jobs ()
  in
  let r1 = mk 1 and r4 = mk 4 in
  let tasks r =
    List.concat_map
      (fun name ->
        let linked = Runner.linked r name in
        let profile = Runner.profile r name Input_gen.Reduced in
        let heur = Dmp_core.Select.run linked profile in
        [
          (name, heur);
          (name, Dmp_core.Select.run ~config:Dmp_core.Select.all_cost linked
                   profile);
          (name, heur);
          (name, meta_tweaked heur);
        ])
      (Runner.names r)
  in
  let seq = List.map (fun (n, a) -> Runner.dmp r1 n a) (tasks r1) in
  let batch1 = Runner.dmp_batch r1 (tasks r1) in
  let tasks4 = tasks r4 in
  let batch4 = Runner.dmp_batch r4 tasks4 in
  check Alcotest.int "batch covers every task" (List.length seq)
    (List.length batch4);
  List.iteri
    (fun i s ->
      check Alcotest.bool
        (Printf.sprintf "task %d: -j 1 batch = sequential" i)
        true
        (stats_bytes s = stats_bytes (List.nth batch1 i));
      check Alcotest.bool
        (Printf.sprintf "task %d: -j 4 batch = sequential" i)
        true
        (stats_bytes s = stats_bytes (List.nth batch4 i)))
    seq;
  (* Conservation on the fresh runner: every task is either simulated
     or answered by a dedup hit, never both and never neither. *)
  check Alcotest.int "simulations + dedup hits = tasks"
    (List.length tasks4)
    (stage_calls r4 "dmp (simulate)" + stage_calls r4 "dmp (dedup hit)");
  check Alcotest.bool "the repeat and the twin were deduped" true
    (stage_calls r4 "dmp (dedup hit)" >= 2 * List.length (Runner.names r4))

(* ---------- segmented / sampled simulation modes ---------- *)

let mode_tasks r =
  List.map
    (fun name ->
      let linked = Runner.linked r name in
      let profile = Runner.profile r name Input_gen.Reduced in
      (name, Dmp_core.Select.run linked profile))
    (Runner.names r)

(* Segmented mode re-simulates checkpointed segments and merges the
   deltas; the result must be byte-identical to the exact simulation,
   for any worker count — the nested (task x segment) Pool.map at -j 4
   exercises pool re-entrancy on a real workload. *)
let test_segmented_batch_byte_identical () =
  let mk jobs =
    Runner.create
      ~benchmarks:[ Registry.find "vpr"; Registry.find "li" ]
      ~max_insts:80_000 ~jobs ()
  in
  let r1 = mk 1 and r4 = mk 4 in
  let exact = Runner.dmp_batch ~mode:Runner.Exact r1 (mode_tasks r1) in
  let seg1 =
    Runner.dmp_batch ~mode:(Runner.Segmented 4) r1 (mode_tasks r1)
  in
  let seg4 =
    Runner.dmp_batch ~mode:(Runner.Segmented 4) r4 (mode_tasks r4)
  in
  List.iteri
    (fun i e ->
      check Alcotest.bool
        (Printf.sprintf "task %d: segmented -j 1 = exact" i)
        true
        (stats_bytes e = stats_bytes (List.nth seg1 i));
      check Alcotest.bool
        (Printf.sprintf "task %d: segmented -j 4 = exact" i)
        true
        (stats_bytes e = stats_bytes (List.nth seg4 i)))
    exact;
  check Alcotest.int "one checkpoint capture per task" (List.length exact * 2)
    (stage_calls r1 "ckpt (capture)" + stage_calls r4 "ckpt (capture)")

(* Sampled mode is an estimate, but the extrapolation is exact on the
   retired counter (each segment scales to its own length), reference
   checkpoints are captured once per benchmark, and the estimated IPC
   must land near the exact one on these short capped traces. *)
let test_sampled_batch_estimates () =
  let r =
    Runner.create
      ~benchmarks:[ Registry.find "vpr"; Registry.find "li" ]
      ~max_insts:80_000 ~jobs:2
      ~sim_mode:(Runner.Sampled { segments = 4; warmup = 2_000; window = 8_000 })
      ()
  in
  let tasks = mode_tasks r in
  let exact = Runner.dmp_batch ~mode:Runner.Exact r tasks in
  (* two batches under the runner's sampled default: the second must
     reuse the memoized reference checkpoints *)
  let samp = Runner.dmp_batch r tasks in
  let samp' = Runner.dmp_batch r tasks in
  check Alcotest.int "reference checkpoints captured once per benchmark" 2
    (stage_calls r "ckpt (capture)");
  List.iteri
    (fun i e ->
      let s = List.nth samp i in
      check Alcotest.int
        (Printf.sprintf "task %d: retired extrapolates exactly" i)
        e.Dmp_uarch.Stats.retired s.Dmp_uarch.Stats.retired;
      check Alcotest.bool
        (Printf.sprintf "task %d: sampled runs are deterministic" i)
        true
        (stats_bytes s = stats_bytes (List.nth samp' i));
      let err =
        abs_float
          (Dmp_uarch.Stats.ipc s /. Dmp_uarch.Stats.ipc e -. 1.)
      in
      check Alcotest.bool
        (Printf.sprintf "task %d: IPC within 25%% (err %.3f)" i err)
        true (err < 0.25))
    exact

(* The fidelity report's own contract: segmented error is identically
   zero (byte-identical stats), and the render says so. *)
let test_sim_fidelity_report () =
  let r = small_runner () in
  let rows = Sim_fidelity.run ~segments:3 ~warmup:1_000 ~window:6_000 r in
  check Alcotest.int "one row per benchmark" 2 (List.length rows);
  List.iter
    (fun row ->
      check Alcotest.bool
        (row.Sim_fidelity.name ^ ": segmented byte-identical") true
        row.Sim_fidelity.seg_bytes;
      check (Alcotest.float 1e-12)
        (row.Sim_fidelity.name ^ ": segmented error zero")
        0. row.Sim_fidelity.err_seg_pct)
    rows;
  let rendered = Sim_fidelity.render rows in
  check Alcotest.bool "render reports byte-identity" true
    (Astring_contains.contains rendered "segmented: byte-identical")

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_cache_dir f =
  let dir = Filename.temp_file "dmp_cache_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let cached_runner dir =
  Runner.create
    ~benchmarks:[ Registry.find "li" ]
    ~max_insts:80_000 ~cache_dir:dir ()

let test_disk_cache_round_trip () =
  with_temp_cache_dir (fun dir ->
      let r1 = cached_runner dir in
      let p1 = profile_bytes (Runner.profile r1 "li" Input_gen.Reduced) in
      let b1 = stats_bytes (Runner.baseline r1 "li") in
      check Alcotest.int "cold run collects" 1
        (stage_calls r1 "profile (collect)");
      (* a fresh runner over the same directory loads instead of
         recomputing *)
      let r2 = cached_runner dir in
      let p2 = profile_bytes (Runner.profile r2 "li" Input_gen.Reduced) in
      let b2 = stats_bytes (Runner.baseline r2 "li") in
      check Alcotest.bool "profile round-trips" true (p1 = p2);
      check Alcotest.bool "baseline round-trips" true (b1 = b2);
      check Alcotest.int "warm run does not collect" 0
        (stage_calls r2 "profile (collect)");
      check Alcotest.int "warm run does not simulate" 0
        (stage_calls r2 "baseline (simulate)");
      check Alcotest.int "warm run does not capture a trace" 0
        (stage_calls r2 "trace (capture)");
      check Alcotest.int "warm run hits the disk cache" 1
        (stage_calls r2 "profile (disk cache)"))

let test_disk_cache_trace_round_trip () =
  with_temp_cache_dir (fun dir ->
      let ann r =
        Dmp_core.Select.run (Runner.linked r "li")
          (Runner.profile r "li" Input_gen.Reduced)
      in
      let r1 = cached_runner dir in
      let d1 = stats_bytes (Runner.dmp r1 "li" (ann r1)) in
      check Alcotest.int "cold run captures once" 1
        (stage_calls r1 "trace (capture)");
      (* a fresh runner loads the persisted trace and replays it to the
         same statistics *)
      let r2 = cached_runner dir in
      let d2 = stats_bytes (Runner.dmp r2 "li" (ann r2)) in
      check Alcotest.bool "dmp stats round-trip" true (d1 = d2);
      check Alcotest.int "warm run does not capture" 0
        (stage_calls r2 "trace (capture)");
      (* the decoded image is served by the process-global image memo,
         so the warm dmp run needs no trace at all; asking for the
         trace itself still loads the persisted one rather than
         re-capturing *)
      check Alcotest.int "warm dmp run needs no trace" 0
        (stage_calls r2 "trace (disk cache)");
      ignore (Runner.trace r2 "li" Input_gen.Reduced);
      check Alcotest.int "explicit trace loads from disk" 1
        (stage_calls r2 "trace (disk cache)");
      check Alcotest.int "explicit trace does not capture" 0
        (stage_calls r2 "trace (capture)"))

let test_disk_cache_sampled_round_trip () =
  let module Sampler = Dmp_sampling.Sampler in
  let sampling = { Sampler.mode = Sampler.Lbr 8; period = 500; seed = 7 } in
  with_temp_cache_dir (fun dir ->
      let r1 = cached_runner dir in
      let p1 =
        profile_bytes
          (Runner.sampled_profile r1 "li" Input_gen.Reduced sampling)
      in
      check Alcotest.int "cold run collects" 1
        (stage_calls r1 "sprofile (collect)");
      (* a fresh runner over the same directory loads instead of
         recomputing *)
      let r2 = cached_runner dir in
      let p2 =
        profile_bytes
          (Runner.sampled_profile r2 "li" Input_gen.Reduced sampling)
      in
      check Alcotest.bool "sampled profile round-trips" true (p1 = p2);
      check Alcotest.int "warm run does not collect" 0
        (stage_calls r2 "sprofile (collect)");
      check Alcotest.int "warm run hits the disk cache" 1
        (stage_calls r2 "sprofile (disk cache)");
      (* any change to the sampling parameters keys a different entry:
         a warm cache for one configuration is cold for its neighbours,
         never stale *)
      List.iter
        (fun other ->
          let r3 = cached_runner dir in
          let p3 =
            profile_bytes
              (Runner.sampled_profile r3 "li" Input_gen.Reduced other)
          in
          check Alcotest.int
            (Sampler.config_to_string other ^ ": recollected") 1
            (stage_calls r3 "sprofile (collect)");
          check Alcotest.bool
            (Sampler.config_to_string other ^ ": different counters") true
            (p3 <> p1))
        [
          { sampling with Sampler.period = 200 };
          { sampling with Sampler.seed = 8 };
          { sampling with Sampler.mode = Sampler.Mispredict };
        ])

(* The fidelity sweep's anchor row: period-1 periodic sampling must
   agree with the exact pipeline perfectly — Jaccard 1 on both sets,
   zero IPC delta, byte-identical annotations. *)
let test_profile_fidelity_anchor () =
  let module Sampler = Dmp_sampling.Sampler in
  let r = small_runner () in
  let rows =
    Profile_fidelity.run ~periods:[ 1; 1000 ]
      ~modes:[ Sampler.Periodic; Sampler.Lbr 4 ]
      r
  in
  check Alcotest.int "one row per combination" 4 (List.length rows);
  let anchor =
    List.find
      (fun row ->
        row.Profile_fidelity.mode = Sampler.Periodic
        && row.Profile_fidelity.period = 1)
      rows
  in
  check (Alcotest.float 1e-12) "diverge Jaccard 1" 1.
    anchor.Profile_fidelity.jaccard_diverge;
  check (Alcotest.float 1e-12) "CFM Jaccard 1" 1.
    anchor.Profile_fidelity.jaccard_cfm;
  check (Alcotest.float 1e-12) "zero IPC delta" 0.
    anchor.Profile_fidelity.ipc_delta_pct;
  check Alcotest.bool "annotations byte-identical" true
    anchor.Profile_fidelity.exact_bytes;
  let rendered = Profile_fidelity.render rows in
  check Alcotest.bool "render mentions the modes" true
    (Astring_contains.contains rendered "periodic"
    && Astring_contains.contains rendered "lbr4")

let test_disk_cache_corrupt_fallback () =
  with_temp_cache_dir (fun dir ->
      let r1 = cached_runner dir in
      let p1 = profile_bytes (Runner.profile r1 "li" Input_gen.Reduced) in
      (* clobber every cache entry *)
      Array.iter
        (fun sub ->
          let sub = Filename.concat dir sub in
          if Sys.is_directory sub then
            Array.iter
              (fun f ->
                let oc = open_out_bin (Filename.concat sub f) in
                output_string oc "not a cache entry";
                close_out oc)
              (Sys.readdir sub))
        (Sys.readdir dir);
      let r2 = cached_runner dir in
      let p2 = profile_bytes (Runner.profile r2 "li" Input_gen.Reduced) in
      check Alcotest.bool "corrupt entry falls back to recompute" true
        (p1 = p2);
      check Alcotest.int "recompute happened" 1
        (stage_calls r2 "profile (collect)");
      check Alcotest.int "corrupt trace entry is recaptured" 1
        (stage_calls r2 "trace (capture)");
      (* the recompute re-stored a good entry *)
      let r3 = cached_runner dir in
      let p3 = profile_bytes (Runner.profile r3 "li" Input_gen.Reduced) in
      check Alcotest.bool "re-stored entry loads" true (p1 = p3);
      check Alcotest.int "no recompute after re-store" 0
        (stage_calls r3 "profile (collect)"))

(* Targeted corruption injection against the Disk_cache format itself
   (magic | digest | marshalled payload): a flipped bit anywhere, or a
   truncation at any boundary — empty file, inside the magic, inside
   the digest, inside the payload — must load as a miss, never raise,
   and a re-store must restore service. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let flip_bit path pos =
  let s = Bytes.of_string (read_file path) in
  let pos = min pos (Bytes.length s - 1) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x40));
  write_file path (Bytes.to_string s)

let truncate_to path keep =
  let s = read_file path in
  write_file path (String.sub s 0 (min keep (String.length s)))

let test_disk_cache_corruption_injection () =
  with_temp_cache_dir (fun dir ->
      let linked =
        Dmp_ir.Linked.link (Helpers.simple_hammock_program ~iters:200 ())
      in
      let input = Helpers.uniform_input 300 in
      let trace = Dmp_exec.Trace.capture linked ~input in
      let profile = Dmp_profile.Profile.collect_trace linked trace in
      let cache = Disk_cache.create ~dir ~max_insts:None () in
      let bench = "synthetic" and set = Input_gen.Reduced in
      let store () =
        Disk_cache.store_profile cache ~bench ~set profile;
        Disk_cache.store_trace cache ~bench ~set trace
      in
      let entries () =
        (* payload entries only: each also carries a .atime sidecar
           recording its last use for LRU eviction *)
        Sys.readdir (Disk_cache.dir cache)
        |> Array.to_list
        |> List.filter (fun f -> not (Filename.check_suffix f ".atime"))
        |> List.sort compare
        |> List.map (Filename.concat (Disk_cache.dir cache))
      in
      let trace_bytes (t : Dmp_exec.Trace.t) = Marshal.to_string t [] in
      let loads_intact () =
        (match Disk_cache.load_profile cache linked ~bench ~set with
        | Some p -> profile_bytes p = profile_bytes profile
        | None -> false)
        &&
        match Disk_cache.load_trace cache ~bench ~set with
        | Some t -> trace_bytes t = trace_bytes trace
        | None -> false
      in
      let loads_missing () =
        Disk_cache.load_profile cache linked ~bench ~set = None
        && Disk_cache.load_trace cache ~bench ~set = None
      in
      store ();
      check Alcotest.int "two entries on disk" 2 (List.length (entries ()));
      check Alcotest.bool "intact entries load" true (loads_intact ());
      (* a flipped bit in the payload breaks the digest *)
      List.iter
        (fun f -> flip_bit f (String.length (read_file f) / 2))
        (entries ());
      check Alcotest.bool "bit-flipped entries miss" true (loads_missing ());
      check Alcotest.int "corrupt entries evicted" 0
        (List.length (entries ()));
      store ();
      check Alcotest.bool "re-stored entries load" true (loads_intact ());
      (* a flipped bit in the magic is caught before the digest *)
      List.iter (fun f -> flip_bit f 0) (entries ());
      check Alcotest.bool "bad-magic entries miss" true (loads_missing ());
      List.iter
        (fun keep ->
          store ();
          List.iter
            (fun f ->
              let len = String.length (read_file f) in
              truncate_to f (min keep (len - 1)))
            (entries ());
          check Alcotest.bool
            (Printf.sprintf "truncated-to-%d entries miss" keep)
            true (loads_missing ()))
        [ 0; 3; 20; 1000 ];
      store ();
      List.iter
        (fun f -> truncate_to f (String.length (read_file f) / 2))
        (entries ());
      check Alcotest.bool "half-truncated entries miss" true (loads_missing ());
      store ();
      check Alcotest.bool "cache recovers after every corruption" true
        (loads_intact ()))

(* The DMP_CACHE_BYTES size cap: least-recently-used entries (ordered
   by the .atime sidecars, which loads rewrite) are evicted on store
   until the total fits, and a load of an evicted entry is an ordinary
   miss — it never raises. *)
let test_disk_cache_lru_eviction () =
  with_temp_cache_dir (fun rdir ->
      let r = Runner.create ~benchmarks:[ Registry.find "li" ]
          ~max_insts:80_000 ~cache_dir:rdir () in
      let stats = Runner.baseline r "li" in
      (* measure one entry's on-disk size with an uncapped cache *)
      let entry_size =
        with_temp_cache_dir (fun dir ->
            let probe = Disk_cache.create ~dir ~max_insts:None () in
            Disk_cache.store_baseline probe ~bench:"probe"
              ~set:Input_gen.Reduced stats;
            Sys.readdir (Disk_cache.dir probe)
            |> Array.to_list
            |> List.filter (fun f -> not (Filename.check_suffix f ".atime"))
            |> List.map (fun f ->
                   (Unix.stat (Filename.concat (Disk_cache.dir probe) f))
                     .Unix.st_size)
            |> List.fold_left ( + ) 0)
      in
      with_temp_cache_dir (fun dir ->
          (* room for three entries and change *)
          let cap = (3 * entry_size) + (entry_size / 2) in
          let cache = Disk_cache.create ~dir ~max_bytes:cap ~max_insts:None ()
          in
          let store b =
            Disk_cache.store_baseline cache ~bench:b ~set:Input_gen.Reduced
              stats
          in
          let load b =
            Disk_cache.load_baseline cache ~bench:b ~set:Input_gen.Reduced
          in
          store "a";
          store "b";
          store "c";
          check Alcotest.bool "a live before eviction" true (load "a" <> None);
          (* that load made "a" the most recently used; "b" is now the
             oldest access, so the next store must evict "b" *)
          store "d";
          check Alcotest.bool "b evicted, load is a clean miss" true
            (load "b" = None);
          check Alcotest.bool "recently-used a survives" true
            (load "a" <> None);
          check Alcotest.bool "c survives" true (load "c" <> None);
          check Alcotest.bool "d survives" true (load "d" <> None)))

let test_cache_bytes_env () =
  let set v = Unix.putenv "DMP_CACHE_BYTES" v in
  Fun.protect
    ~finally:(fun () -> set "")
    (fun () ->
      set "";
      check Alcotest.bool "blank = unlimited" true
        (Disk_cache.env_max_bytes () = Ok None);
      set "  ";
      check Alcotest.bool "whitespace = unlimited" true
        (Disk_cache.env_max_bytes () = Ok None);
      set "1048576";
      check Alcotest.bool "positive accepted" true
        (Disk_cache.env_max_bytes () = Ok (Some 1048576));
      List.iter
        (fun bad ->
          set bad;
          check Alcotest.bool (Printf.sprintf "%S rejected" bad) true
            (match Disk_cache.env_max_bytes () with
            | Error _ -> true
            | Ok _ -> false))
        [ "0"; "-5"; "lots"; "1.5" ])

(* ---------- batch dedup ---------- *)

(* N behaviourally identical tasks collapse onto one simulation; a
   repeat batch is answered entirely from the fingerprint memo. The
   dedup also has to see through selection metadata: an annotation
   rebuilt with different merge probabilities fingerprints (and
   simulates) as the original. *)
let test_batch_dedup_counters () =
  let r = small_runner () in
  let ann =
    Dmp_core.Select.run (Runner.linked r "li")
      (Runner.profile r "li" Input_gen.Reduced)
  in
  let tasks = [ ("li", ann); ("li", meta_tweaked ann); ("li", ann) ] in
  let batch = Runner.dmp_batch r tasks in
  check Alcotest.int "one simulation" 1 (stage_calls r "dmp (simulate)");
  check Alcotest.int "two dedup hits" 2 (stage_calls r "dmp (dedup hit)");
  let batch' = Runner.dmp_batch r tasks in
  check Alcotest.int "repeat batch simulates nothing" 1
    (stage_calls r "dmp (simulate)");
  check Alcotest.int "repeat batch is all memo hits" 5
    (stage_calls r "dmp (dedup hit)");
  let solo = Runner.dmp r "li" ann in
  List.iter
    (fun s ->
      check Alcotest.bool "deduped stats byte-identical to solo" true
        (stats_bytes s = stats_bytes solo))
    (batch @ batch')

(* The process-global image memo: a second runner over the same
   (benchmark, set, cap) shares the first runner's decoded image
   without decoding — physically the same value. *)
let test_global_image_memo () =
  let mk () =
    Runner.create ~benchmarks:[ Registry.find "mcf" ] ~max_insts:90_000 ()
  in
  let r1 = mk () in
  let i1 = Runner.image r1 "mcf" Input_gen.Reduced in
  check Alcotest.int "first runner decodes once" 1
    (stage_calls r1 "image (decode)");
  let r2 = mk () in
  let i2 = Runner.image r2 "mcf" Input_gen.Reduced in
  check Alcotest.int "second runner decodes nothing" 0
    (stage_calls r2 "image (decode)");
  check Alcotest.bool "physically the same image" true (i1 == i2);
  ignore (Sys.opaque_identity r1)

let test_report_render () =
  let fig =
    {
      Report.title = "t";
      unit_label = "u";
      benchmarks = [ "a"; "b" ];
      series =
        [ { Report.label = "s1"; values = [ ("a", 1.); ("b", 3.) ] } ];
    }
  in
  let s = Report.render fig in
  check Alcotest.bool "has mean row" true
    (Astring_contains.contains s "amean");
  check Alcotest.bool "mean correct" true (Astring_contains.contains s "2.00")

(* ---------- cfm-comparison ---------- *)

(* The three-way sweep mixes static batches with per-geometry dynamic
   batches: its rendered report must stay byte-identical across worker
   counts. *)
let test_cfm_comparison_invariance () =
  let render ~jobs =
    let r =
      Runner.create
        ~benchmarks:[ Registry.find "li"; Registry.find "compress" ]
        ~max_insts:60_000 ~jobs ()
    in
    Cfm_comparison.render (Cfm_comparison.run ~periods:[ 1_000 ] r)
  in
  let j1 = render ~jobs:1 in
  let j4 = render ~jobs:4 in
  check Alcotest.string "-j1 = -j4" j1 j4;
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " row present") true
        (Astring_contains.contains j1 needle))
    [ "provider"; "static"; "dynamic"; "oracle"; "mpt-128x4"; "mpt-16x2";
      "stale-1000"; "iposdom" ]

let test_cfm_comparison_warmup_column () =
  let r =
    Runner.create ~benchmarks:[ Registry.find "li" ] ~max_insts:40_000 ()
  in
  let rows = Cfm_comparison.run ~periods:[ 1_000 ] r in
  List.iter
    (fun (row : Cfm_comparison.row) ->
      match row.Cfm_comparison.warmup with
      | Some w ->
          check Alcotest.bool "dynamic rows record a warm-up point" true
            (row.Cfm_comparison.provider = "dynamic" && w >= 0)
      | None ->
          check Alcotest.bool "static/oracle rows have no warm-up" true
            (row.Cfm_comparison.provider <> "dynamic"))
    rows

let () =
  Alcotest.run "dmp_experiments"
    [
      ( "runner",
        [
          Alcotest.test_case "caching" `Quick test_runner_caching;
          Alcotest.test_case "unknown" `Quick test_runner_unknown;
          Alcotest.test_case "amean" `Quick test_amean;
        ] );
      ( "variants",
        [ Alcotest.test_case "lookup" `Quick test_variants_lookup ] );
      ( "parallel",
        [
          Alcotest.test_case "prefetch = sequential" `Slow
            test_parallel_prefetch_equivalence;
          Alcotest.test_case "dmp_batch = sequential" `Slow
            test_parallel_dmp_batch_equivalence;
        ] );
      ( "sim modes",
        [
          Alcotest.test_case "segmented byte-identical" `Slow
            test_segmented_batch_byte_identical;
          Alcotest.test_case "sampled estimates" `Slow
            test_sampled_batch_estimates;
          Alcotest.test_case "sim-fidelity report" `Slow
            test_sim_fidelity_report;
        ] );
      ( "disk cache",
        [
          Alcotest.test_case "round trip" `Slow test_disk_cache_round_trip;
          Alcotest.test_case "trace round trip" `Slow
            test_disk_cache_trace_round_trip;
          Alcotest.test_case "sampled round trip" `Slow
            test_disk_cache_sampled_round_trip;
          Alcotest.test_case "corrupt fallback" `Slow
            test_disk_cache_corrupt_fallback;
          Alcotest.test_case "corruption injection" `Quick
            test_disk_cache_corruption_injection;
          Alcotest.test_case "LRU eviction under DMP_CACHE_BYTES" `Slow
            test_disk_cache_lru_eviction;
          Alcotest.test_case "DMP_CACHE_BYTES validated" `Quick
            test_cache_bytes_env;
        ] );
      ( "fused batch",
        [
          Alcotest.test_case "dedup counters" `Slow test_batch_dedup_counters;
          Alcotest.test_case "global image memo" `Slow test_global_image_memo;
        ] );
      ( "cfm comparison",
        [
          Alcotest.test_case "jobs invariance" `Slow
            test_cfm_comparison_invariance;
          Alcotest.test_case "warm-up column" `Slow
            test_cfm_comparison_warmup_column;
        ] );
      ( "figures",
        [
          Alcotest.test_case "table2" `Slow test_table2;
          Alcotest.test_case "fig5 left" `Slow test_fig5_left;
          Alcotest.test_case "fig10 sums" `Slow test_fig10_percentages;
          Alcotest.test_case "fig7 grid" `Slow test_fig7_grid;
          Alcotest.test_case "profile-fidelity anchor" `Slow
            test_profile_fidelity_anchor;
          Alcotest.test_case "report render" `Quick test_report_render;
        ] );
    ]
