open Dmp_ir
open Dmp_uarch
module B = Build

let check = Alcotest.check
let reg = Reg.of_int

(* ---------- cache ---------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~log2_sets:2 ~ways:2 ~line_bytes:64 in
  check Alcotest.bool "cold miss" false (Cache.access c 0);
  check Alcotest.bool "hit same line" true (Cache.access c 32);
  check Alcotest.bool "different line" false (Cache.access c 256);
  check Alcotest.bool "first still resident" true (Cache.access c 0)

let test_cache_lru_eviction () =
  let c = Cache.create ~log2_sets:0 ~ways:2 ~line_bytes:64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  ignore (Cache.access c 128);
  (* 0 is the LRU victim *)
  check Alcotest.bool "victim evicted" false (Cache.access c 0);
  check Alcotest.bool "recent kept" true (Cache.access c 128)

let test_hierarchy_latencies () =
  let h = Cache.hierarchy Config.baseline in
  let first = Cache.load_latency h 4096 in
  check Alcotest.int "cold miss costs memory latency"
    Config.baseline.Config.memory_latency first;
  let second = Cache.load_latency h 4096 in
  check Alcotest.int "then L1 hit" Config.baseline.Config.l1_hit_latency
    second

(* ---------- static info ---------- *)

let test_static_info () =
  let program = Helpers.ret_cfm_program ~iters:5 () in
  let linked = Linked.link program in
  let si = Static_info.of_linked linked in
  check Alcotest.int "covers every address" (Linked.size linked)
    (Static_info.size si);
  let found_call = ref false and found_branch = ref false in
  for a = 0 to Static_info.size si - 1 do
    let i = Static_info.get si a in
    match i.Static_info.klass with
    | Static_info.K_call ->
        found_call := true;
        check Alcotest.int "call fallthrough" (a + 1)
          i.Static_info.fall_addr;
        check Alcotest.int "call target is callee entry"
          (Linked.func_entry linked (Linked.func_of_name linked "decide"))
          i.Static_info.taken_addr
    | Static_info.K_branch ->
        found_branch := true;
        check Alcotest.bool "branch targets valid" true
          (i.Static_info.taken_addr >= 0 && i.Static_info.fall_addr >= 0)
    | _ -> ()
  done;
  check Alcotest.bool "saw call" true !found_call;
  check Alcotest.bool "saw branch" true !found_branch

(* ---------- simulator basics ---------- *)

let sim_program ?config ?annotation program ~input =
  Sim.run ?config ?annotation (Linked.link program) ~input

let test_sim_retires_whole_trace () =
  let program = Helpers.simple_hammock_program ~iters:200 () in
  let input = Helpers.uniform_input 300 in
  let linked = Linked.link program in
  let emu = Dmp_exec.Emulator.create linked ~input in
  let expected = Dmp_exec.Emulator.run emu in
  let stats = Sim.run linked ~input in
  check Alcotest.int "retired = architectural trace" expected
    stats.Stats.retired;
  check Alcotest.bool "cycles positive" true (stats.Stats.cycles > 0)

let test_sim_baseline_flushes_equal_mispredictions () =
  let program = Helpers.freq_hammock_program ~iters:500 () in
  let stats =
    sim_program ~config:Config.baseline program
      ~input:(Helpers.uniform_input 600)
  in
  check Alcotest.int "every misprediction flushes"
    stats.Stats.mispredictions stats.Stats.flushes

let test_sim_dmp_empty_annotation_matches_baseline () =
  let program = Helpers.freq_hammock_program ~iters:500 () in
  let input = Helpers.uniform_input 600 in
  let base = sim_program ~config:Config.baseline program ~input in
  let dmp =
    sim_program ~config:Config.dmp
      ~annotation:(Dmp_core.Annotation.empty ())
      program ~input
  in
  check Alcotest.int "identical cycle count" base.Stats.cycles
    dmp.Stats.cycles;
  check Alcotest.int "identical flushes" base.Stats.flushes dmp.Stats.flushes

let test_sim_deterministic () =
  let program = Helpers.simple_hammock_program ~iters:400 () in
  let input = Helpers.uniform_input 500 in
  let a = sim_program program ~input in
  let b = sim_program program ~input in
  check Alcotest.int "same cycles" a.Stats.cycles b.Stats.cycles

let test_predictable_code_has_high_ipc () =
  (* straight-line arithmetic with an easy loop: IPC well above 1 *)
  let f = B.func "main" in
  let n = reg 4 in
  B.li f n 2000;
  B.label f "loop";
  for i = 0 to 9 do
    B.add f (reg (8 + (i mod 4))) (reg (8 + ((i + 1) mod 4))) (B.imm 1)
  done;
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  let stats =
    sim_program
      (Program.of_funcs_exn ~main:"main" [ B.finish f ])
      ~input:[||]
  in
  check Alcotest.bool "IPC > 2" true (Stats.ipc stats > 2.);
  check Alcotest.bool "almost no flushes" true (stats.Stats.flushes < 20)

(* ---------- DMP behaviour ---------- *)

let dmp_setup program ~input =
  let linked = Linked.link program in
  let profile = Dmp_profile.Profile.collect linked ~input in
  let ann = Dmp_core.Select.run linked profile in
  let base = Sim.run ~config:Config.baseline linked ~input in
  let dmp = Sim.run ~config:Config.dmp ~annotation:ann linked ~input in
  (ann, base, dmp)

let test_dmp_reduces_flushes_on_hammock () =
  let _, base, dmp =
    dmp_setup (Helpers.simple_hammock_program ())
      ~input:(Helpers.uniform_input 2100)
  in
  check Alcotest.bool "flushes cut by more than half" true
    (dmp.Stats.flushes * 2 < base.Stats.flushes);
  check Alcotest.bool "faster" true (Stats.ipc dmp > Stats.ipc base);
  check Alcotest.bool "dpred entered" true (dmp.Stats.dpred_entries > 0);
  check Alcotest.bool "merges happened" true (dmp.Stats.dpred_merges > 0)

let test_dmp_loop_cases_observed () =
  let _, _, dmp =
    dmp_setup
      (Helpers.data_loop_program ~iters:2000 ~modulus:6 ())
      ~input:(Helpers.uniform_input 2100)
  in
  check Alcotest.bool "loop dpred entered" true
    (dmp.Stats.dpred_loop_entries > 0);
  check Alcotest.bool "late exits observed" true
    (dmp.Stats.loop_late_exits > 0)

let test_dmp_return_cfm_merges () =
  let ann, base, dmp =
    dmp_setup (Helpers.ret_cfm_program ()) ~input:(Helpers.uniform_input 2100)
  in
  let has_ret =
    Dmp_core.Annotation.fold
      (fun d acc -> acc || d.Dmp_core.Annotation.return_cfm)
      ann false
  in
  check Alcotest.bool "return CFM annotated" true has_ret;
  check Alcotest.bool "merges" true (dmp.Stats.dpred_merges > 0);
  check Alcotest.bool "not slower" true
    (Stats.ipc dmp > Stats.ipc base *. 0.97)

let test_confidence_pvn_range () =
  let _, _, dmp =
    dmp_setup (Helpers.freq_hammock_program ())
      ~input:(Helpers.uniform_input 2100)
  in
  let pvn = Stats.confidence_pvn dmp in
  (* the paper quotes 15%-50% for JRS-style estimators *)
  check Alcotest.bool "PVN plausible" true (pvn > 0.10 && pvn < 0.65)

let test_stats_accounting () =
  let _, _, dmp =
    dmp_setup (Helpers.freq_hammock_program ())
      ~input:(Helpers.uniform_input 2100)
  in
  check Alcotest.int "hammock + loop = entries"
    dmp.Stats.dpred_entries
    (dmp.Stats.dpred_hammock_entries + dmp.Stats.dpred_loop_entries);
  check Alcotest.bool "avoided <= mispredictions" true
    (dmp.Stats.dpred_flushes_avoided <= dmp.Stats.mispredictions);
  check Alcotest.bool "flushes + avoided <= mispredictions + early" true
    (dmp.Stats.flushes <= dmp.Stats.mispredictions)

(* ---------- properties ---------- *)

let qcheck_sim_terminates_and_counts =
  QCheck.Test.make ~name:"simulator retires exactly the trace" ~count:30
    QCheck.(int_range 2 15)
    (fun n ->
      let st = Random.State.make [| n; 55 |] in
      let program = Helpers.random_program st ~nblocks:n in
      let linked = Linked.link program in
      let input = Helpers.uniform_input 64 in
      let emu = Dmp_exec.Emulator.create linked ~input in
      let expected = Dmp_exec.Emulator.run emu in
      let stats = Sim.run linked ~input in
      stats.Stats.retired = expected
      && stats.Stats.flushes = stats.Stats.mispredictions)

let test_image_foreign_program_rejected () =
  (* An image decoded from one program must not drive a simulation of a
     smaller one: create_image validates the address range up front. *)
  let big = Linked.link (Helpers.freq_hammock_program ~iters:10 ()) in
  let small_f = B.func "main" in
  B.halt small_f;
  let small =
    Linked.link (Program.of_funcs_exn ~main:"main" [ B.finish small_f ])
  in
  let tr = Dmp_exec.Trace.capture big ~input:(Helpers.uniform_input 50) in
  let img = Dmp_exec.Image.of_trace tr in
  Alcotest.check_raises "foreign image rejected"
    (Invalid_argument
       "Sim.create_image: image addresses exceed the linked program")
    (fun () -> ignore (Sim.run_image small img))

let qcheck_dmp_never_wildly_slower =
  QCheck.Test.make ~name:"DMP within 40% of baseline on random programs"
    ~count:20
    QCheck.(int_range 2 12)
    (fun n ->
      let st = Random.State.make [| n; 61 |] in
      let program = Helpers.random_program st ~nblocks:n in
      let linked = Linked.link program in
      let input = Helpers.uniform_input 64 in
      let profile = Dmp_profile.Profile.collect linked ~input in
      let ann = Dmp_core.Select.run linked profile in
      let base = Sim.run ~config:Config.baseline linked ~input in
      let dmp = Sim.run ~config:Config.dmp ~annotation:ann linked ~input in
      float_of_int dmp.Stats.cycles
      <= 1.4 *. float_of_int (max 1 base.Stats.cycles))

(* ---------- checkpoints ---------- *)

let stat_bytes (s : Stats.t) = Marshal.to_string s []

let ckpt_setup program ~input =
  let linked = Linked.link program in
  let tr = Dmp_exec.Trace.capture linked ~input in
  let img = Dmp_exec.Image.of_trace tr in
  let profile = Dmp_profile.Profile.collect linked ~input in
  let ann = Dmp_core.Select.run linked profile in
  (linked, img, ann)

(* Split a checkpointed run back into segments — from the start to the
   first checkpoint, between consecutive checkpoints, and from the last
   checkpoint to the end — and fold the per-segment deltas. *)
let merged_segments ~config ?annotation ~interval linked img ckpts =
  let rec go from rest acc =
    match rest with
    | [] ->
        let d =
          Sim.run_image_segment ~config ?annotation ?from ~interval
            ~to_completion:true linked img
        in
        d :: acc
    | ck :: tl ->
        let d =
          Sim.run_image_segment ~config ?annotation ?from ~interval
            ~to_completion:false linked img
        in
        go (Some ck) tl (d :: acc)
  in
  List.fold_left Stats.merge (Stats.create ()) (go None ckpts [])

let test_checkpoint_resume_roundtrip () =
  let input = Helpers.uniform_input 600 in
  let linked, img, ann =
    ckpt_setup (Helpers.freq_hammock_program ~iters:400 ()) ~input
  in
  let config = Config.dmp in
  let full = Sim.run_image ~config ~annotation:ann linked img in
  let ck_stats, ckpts =
    Sim.run_image_checkpointed ~config ~annotation:ann ~interval:500 linked
      img
  in
  check Alcotest.string "checkpointing run byte-identical to plain run"
    (stat_bytes full) (stat_bytes ck_stats);
  check Alcotest.bool "captured at least two checkpoints" true
    (List.length ckpts >= 2);
  List.iter
    (fun ck ->
      let t = Sim.resume_image ~config ~annotation:ann linked img ck in
      let tail = Sim.run_to_completion t in
      check Alcotest.string "resume reproduces the final statistics"
        (stat_bytes full) (stat_bytes tail))
    ckpts

let test_segment_merge_exact () =
  let input = Helpers.uniform_input 500 in
  let linked, img, ann =
    ckpt_setup (Helpers.data_loop_program ~iters:300 ()) ~input
  in
  List.iter
    (fun (config, annotation) ->
      let full = Sim.run_image ~config ?annotation linked img in
      let interval = max 1 (full.Stats.retired / 5) in
      let _, ckpts =
        Sim.run_image_checkpointed ~config ?annotation ~interval linked img
      in
      let merged =
        merged_segments ~config ?annotation ~interval linked img ckpts
      in
      check Alcotest.string "segment deltas merge to the full run"
        (stat_bytes full) (stat_bytes merged))
    [ (Config.baseline, None); (Config.dmp, Some ann) ]

let test_checkpoint_rejects_foreign_shape () =
  let input = Helpers.uniform_input 400 in
  let linked, img, ann =
    ckpt_setup (Helpers.freq_hammock_program ~iters:300 ()) ~input
  in
  let _, ckpts =
    Sim.run_image_checkpointed ~config:Config.dmp ~annotation:ann
      ~interval:400 linked img
  in
  match ckpts with
  | [] -> Alcotest.fail "expected at least one checkpoint"
  | ck :: _ ->
      let small = { Config.dmp with Config.rob_size = 64 } in
      Alcotest.check_raises "different ROB size rejected"
        (Invalid_argument
           "Sim.resume: checkpoint is for a different configuration")
        (fun () ->
          ignore (Sim.resume_image ~config:small ~annotation:ann linked img ck))

(* A checkpoint whose trace position no run over the image can reach
   would make the resumed fetch loop read outside the image. Every such
   "core" section is rejected, by the exact resume and by the sampled
   mode's architectural restore alike. *)
let test_checkpoint_rejects_bad_position () =
  let input = Helpers.uniform_input 400 in
  let linked, img, ann =
    ckpt_setup (Helpers.freq_hammock_program ~iters:300 ()) ~input
  in
  let _, ckpts =
    Sim.run_image_checkpointed ~config:Config.dmp ~annotation:ann
      ~interval:400 linked img
  in
  let ck =
    match ckpts with
    | ck :: _ -> ck
    | [] -> Alcotest.fail "expected at least one checkpoint"
  in
  let module Ck = Dmp_exec.Checkpoint in
  let len = Dmp_exec.Image.length img in
  let core0 = Ck.section ck "core" in
  (* [ck] with core slots 3 (pending), 4 (trace done) and 5 (pos)
     overwritten, and the given consumed count. *)
  let craft ?pending ?trace_done ?pos ~consumed () =
    let core = Array.copy core0 in
    Option.iter (fun v -> core.(3) <- v) pending;
    Option.iter (fun v -> core.(4) <- v) trace_done;
    Option.iter (fun v -> core.(5) <- v) pos;
    Ck.create ~consumed
      (List.map
         (fun (name, a) -> if name = "core" then (name, core) else (name, a))
         (Ck.sections ck))
  in
  let pos = core0.(5) and consumed = Ck.consumed ck in
  let range = "Sim.resume: trace position out of range"
  and flags = "Sim.resume: bad core flags"
  and count = "Sim.resume: consumed count disagrees with trace position" in
  List.iter
    (fun (label, msg, bad) ->
      Alcotest.check_raises (label ^ " (resume)") (Invalid_argument msg)
        (fun () ->
          ignore (Sim.resume_image ~config:Config.dmp ~annotation:ann linked
                    img bad));
      Alcotest.check_raises (label ^ " (sampled)") (Invalid_argument msg)
        (fun () ->
          ignore
            (Sim.run_image_sampled ~config:Config.dmp ~annotation:ann
               ~from:bad ~length:100 ~warmup:10 ~window:50 linked img)))
    [
      ("pending at pos -1", count, craft ~pending:1 ~pos:(-1) ~consumed:0 ());
      ("pos below -1", range, craft ~pos:(-2) ~consumed:0 ());
      ("pos at image length", range, craft ~pos:len ~consumed ());
      ("pos far past the image", range, craft ~pos:max_int ~consumed ());
      ("pending flag 2", flags, craft ~pending:2 ~consumed ());
      ("pending flag -1", flags, craft ~pending:(-1) ~consumed ());
      ("trace-done flag 3", flags, craft ~trace_done:3 ~consumed ());
      ("consumed one ahead", count, craft ~consumed:(consumed + 1) ());
      ("pending flipped", count, craft ~pending:(1 - core0.(3)) ~consumed ());
      ("pos moved back", count, craft ~pos:(pos - 1) ~consumed ());
    ];
  (* The untouched checkpoint still resumes. *)
  ignore (Sim.resume_image ~config:Config.dmp ~annotation:ann linked img ck)

(* Dynamic merge-point provider: the Merge Point Table is part of the
   checkpoint, so resuming mid-run reproduces the full run exactly —
   the predictor restarts with its trained state, not cold. *)
let test_checkpoint_dynamic_mpt_roundtrip () =
  let input = Helpers.uniform_input 800 in
  let linked, img, _ =
    ckpt_setup (Helpers.freq_hammock_program ~iters:600 ()) ~input
  in
  let config = Config.dmp_dynamic Dmp_mpp.Mpt.small in
  let full = Sim.run_image ~config linked img in
  let ck_stats, ckpts =
    Sim.run_image_checkpointed ~config ~interval:600 linked img
  in
  check Alcotest.string "checkpointing run byte-identical to plain run"
    (stat_bytes full) (stat_bytes ck_stats);
  check Alcotest.bool "captured at least one checkpoint" true (ckpts <> []);
  List.iter
    (fun ck ->
      check Alcotest.bool "checkpoint carries the MPT section" true
        (Dmp_exec.Checkpoint.section_opt ck "mpt" <> None);
      let t = Sim.resume_image ~config linked img ck in
      let tail = Sim.run_to_completion t in
      check Alcotest.string "resume reproduces the final statistics"
        (stat_bytes full) (stat_bytes tail))
    ckpts

let test_resume_dynamic_requires_mpt_section () =
  let input = Helpers.uniform_input 400 in
  let linked, img, ann =
    ckpt_setup (Helpers.freq_hammock_program ~iters:300 ()) ~input
  in
  (* Checkpoint a static-provider run, then try to resume it under the
     dynamic provider: the predictor state is missing, which resume
     (unlike the sampled restore, which deliberately starts cold) must
     refuse. *)
  let _, ckpts =
    Sim.run_image_checkpointed ~config:Config.dmp ~annotation:ann
      ~interval:400 linked img
  in
  match ckpts with
  | [] -> Alcotest.fail "expected at least one checkpoint"
  | ck :: _ ->
      Alcotest.check_raises "missing MPT section rejected"
        (Invalid_argument
           "Sim.resume_image: checkpoint lacks merge-point predictor state")
        (fun () ->
          ignore
            (Sim.resume_image
               ~config:(Config.dmp_dynamic Dmp_mpp.Mpt.small)
               linked img ck))

let test_sampled_extrapolates_retired () =
  let input = Helpers.uniform_input 800 in
  let linked, img, ann =
    ckpt_setup (Helpers.freq_hammock_program ~iters:600 ()) ~input
  in
  let config = Config.dmp in
  let full = Sim.run_image ~config ~annotation:ann linked img in
  let sampled =
    Sim.run_image_sampled ~config ~annotation:ann ~length:full.Stats.retired
      ~warmup:200 ~window:500 linked img
  in
  check Alcotest.int "sampled retired extrapolates to the segment length"
    full.Stats.retired sampled.Stats.retired;
  check Alcotest.bool "sampled cycle estimate positive" true
    (sampled.Stats.cycles > 0);
  (* A segment shorter than warmup + window is simulated in full, so the
     estimate is exact. *)
  let short =
    Sim.run_image_sampled ~config ~annotation:ann ~length:full.Stats.retired
      ~warmup:full.Stats.retired ~window:1 linked img
  in
  check Alcotest.string "short segment simulated exactly" (stat_bytes full)
    (stat_bytes short)

let qcheck_segment_merge_random =
  QCheck.Test.make
    ~name:"random programs: segment deltas merge to the full run" ~count:20
    QCheck.(pair (int_range 2 14) (int_range 1 8))
    (fun (n, segs) ->
      let st = Random.State.make [| n; segs; 173 |] in
      let program = Helpers.random_program st ~nblocks:n in
      let linked = Linked.link program in
      let input = Helpers.uniform_input 64 in
      let tr = Dmp_exec.Trace.capture linked ~input in
      let img = Dmp_exec.Image.of_trace tr in
      let profile = Dmp_profile.Profile.collect linked ~input in
      let ann = Dmp_core.Select.run linked profile in
      let config = Config.dmp in
      let full = Sim.run_image ~config ~annotation:ann linked img in
      let interval = max 1 (full.Stats.retired / segs) in
      let ck_stats, ckpts =
        Sim.run_image_checkpointed ~config ~annotation:ann ~interval linked
          img
      in
      let merged =
        merged_segments ~config ~annotation:ann ~interval linked img ckpts
      in
      stat_bytes ck_stats = stat_bytes full
      && stat_bytes merged = stat_bytes full)

let () =
  Alcotest.run "dmp_uarch"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU" `Quick test_cache_lru_eviction;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy_latencies;
        ] );
      ( "static info",
        [ Alcotest.test_case "classification" `Quick test_static_info ] );
      ( "baseline",
        [
          Alcotest.test_case "retires trace" `Quick
            test_sim_retires_whole_trace;
          Alcotest.test_case "flushes = mispredictions" `Quick
            test_sim_baseline_flushes_equal_mispredictions;
          Alcotest.test_case "empty annotation = baseline" `Quick
            test_sim_dmp_empty_annotation_matches_baseline;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "predictable code fast" `Quick
            test_predictable_code_has_high_ipc;
        ] );
      ( "dmp",
        [
          Alcotest.test_case "hammock flush reduction" `Quick
            test_dmp_reduces_flushes_on_hammock;
          Alcotest.test_case "loop cases" `Quick test_dmp_loop_cases_observed;
          Alcotest.test_case "return CFM" `Quick test_dmp_return_cfm_merges;
          Alcotest.test_case "confidence PVN" `Quick test_confidence_pvn_range;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_sim_terminates_and_counts;
          Alcotest.test_case "foreign image rejected" `Quick
            test_image_foreign_program_rejected;
          QCheck_alcotest.to_alcotest qcheck_dmp_never_wildly_slower;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume round-trip" `Quick
            test_checkpoint_resume_roundtrip;
          Alcotest.test_case "segment merge" `Quick test_segment_merge_exact;
          Alcotest.test_case "dynamic MPT round-trip" `Quick
            test_checkpoint_dynamic_mpt_roundtrip;
          Alcotest.test_case "dynamic resume needs MPT state" `Quick
            test_resume_dynamic_requires_mpt_section;
          Alcotest.test_case "foreign shape rejected" `Quick
            test_checkpoint_rejects_foreign_shape;
          Alcotest.test_case "bad trace position rejected" `Quick
            test_checkpoint_rejects_bad_position;
          Alcotest.test_case "sampled extrapolation" `Quick
            test_sampled_extrapolates_retired;
          QCheck_alcotest.to_alcotest qcheck_segment_merge_random;
        ] );
    ]
