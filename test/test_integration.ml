(* End-to-end pipeline tests over real workload binaries (capped
   simulations keep them fast). *)

open Dmp_workload
open Dmp_core
open Dmp_uarch

let check = Alcotest.check
let cap = 150_000

let pipeline name set =
  let spec = Registry.find name in
  let linked = Spec.linked spec in
  let input = spec.Spec.input set in
  let profile = Dmp_profile.Profile.collect ~max_insts:cap linked ~input in
  (linked, input, profile)

let test_all_best_heur_beats_baseline_overall () =
  (* Across a representative subset, the full technique stack must show
     a clear mean improvement. *)
  let names = [ "vpr"; "twolf"; "parser"; "li"; "go" ] in
  let improvements =
    List.map
      (fun name ->
        let linked, input, profile = pipeline name Input_gen.Reduced in
        let ann = Select.run linked profile in
        let base =
          Sim.run ~config:Config.baseline ~max_insts:cap linked ~input
        in
        let dmp =
          Sim.run ~config:Config.dmp ~annotation:ann ~max_insts:cap linked
            ~input
        in
        (Stats.ipc dmp /. Stats.ipc base -. 1.) *. 100.)
      names
  in
  let mean =
    List.fold_left ( +. ) 0. improvements
    /. float_of_int (List.length improvements)
  in
  check Alcotest.bool "mean improvement > 10%" true (mean > 10.);
  List.iter
    (fun imp -> check Alcotest.bool "no large regression" true (imp > -5.))
    improvements

let test_careful_selection_beats_every_br () =
  let linked, input, profile = pipeline "vpr" Input_gen.Reduced in
  let best = Select.run linked profile in
  let every = Simple_select.run Simple_select.Every_br linked profile in
  let run ann =
    Stats.ipc
      (Sim.run ~config:Config.dmp ~annotation:ann ~max_insts:cap linked
         ~input)
  in
  check Alcotest.bool "all-best-heur > every-br" true
    (run best > run every)

let test_cost_model_close_to_heuristics () =
  (* Section 7.1: the cost-benefit model matches the tuned heuristics. *)
  let names = [ "vpr"; "li"; "crafty" ] in
  let deltas =
    List.map
      (fun name ->
        let linked, input, profile = pipeline name Input_gen.Reduced in
        let heur = Select.run ~config:Select.all_heuristic linked profile in
        let cost = Select.run ~config:Select.all_cost linked profile in
        let run ann =
          Stats.ipc
            (Sim.run ~config:Config.dmp ~annotation:ann ~max_insts:cap
               linked ~input)
        in
        abs_float (run heur -. run cost) /. run heur)
      names
  in
  List.iter
    (fun d -> check Alcotest.bool "within 20%" true (d < 0.20))
    deltas

let test_profile_input_set_robustness () =
  (* Fig. 9: selecting with the train profile costs little when running
     on the reduced input. *)
  let linked, input, profile_same = pipeline "twolf" Input_gen.Reduced in
  let _, _, profile_diff = pipeline "twolf" Input_gen.Train in
  let run ann =
    Stats.ipc
      (Sim.run ~config:Config.dmp ~annotation:ann ~max_insts:cap linked
         ~input)
  in
  let same = run (Select.run linked profile_same) in
  let diff = run (Select.run linked profile_diff) in
  check Alcotest.bool "diff-profile within 10% of same-profile" true
    (diff > same *. 0.9)

let test_replay_equals_live_across_suite () =
  (* Every real benchmark: profiling must be bit-identical whether the
     correct path comes from a live emulator or a replayed packed trace,
     and the live, replayed and image-decoded event streams must agree
     event for event. *)
  let pbytes p = Marshal.to_string (Dmp_profile.Profile.to_raw p) [] in
  List.iter
    (fun spec ->
      let name = spec.Spec.name in
      let linked = Spec.linked spec in
      let input = spec.Spec.input Input_gen.Reduced in
      let tr = Dmp_exec.Trace.capture ~max_insts:cap linked ~input in
      let img = Dmp_exec.Image.of_trace tr in
      let profile =
        Dmp_profile.Profile.collect ~max_insts:cap linked ~input
      in
      check Alcotest.bool (name ^ ": profile identical") true
        (pbytes profile
        = pbytes (Dmp_profile.Profile.collect_trace ~max_insts:cap linked tr));
      check
        Alcotest.(list string)
        (name ^ ": live = trace = image event streams")
        []
        (List.map (Fmt.str "%a" Dmp_check.Diagnostic.pp)
           (Dmp_check.Oracle.check_streams ~max_insts:cap linked ~input tr
              img)))
    Registry.all

let test_profiler_and_machines_share_predictor () =
  (* The compiler reads exactly the mispredictions that the machine
     incurs: the profiler and all three machines resolve every
     correct-path conditional branch through a fresh perceptron, so on
     one capped stream their branch and misprediction totals agree. *)
  let cap = 200_000 in
  List.iter
    (fun spec ->
      let linked = Spec.linked spec in
      List.iter
        (fun set ->
          let trace =
            Dmp_exec.Trace.capture ~max_insts:cap linked
              ~input:(spec.Spec.input set)
          in
          let image = Dmp_exec.Image.of_trace trace in
          let profile =
            Dmp_profile.Profile.collect_trace ~max_insts:cap linked trace
          in
          let ann = Select.run linked profile in
          List.iter
            (fun (machine, config, annotation) ->
              let s =
                Sim.run_image ~config ?annotation ~max_insts:cap linked image
              in
              let what =
                Printf.sprintf "%s/%s %s" spec.Spec.name
                  (Input_gen.set_to_string set) machine
              in
              check Alcotest.int (what ^ ": branches")
                (Dmp_profile.Profile.total_branch_executions profile)
                s.Stats.cond_branches;
              check Alcotest.int (what ^ ": mispredictions")
                (Dmp_profile.Profile.total_mispredictions profile)
                s.Stats.mispredictions)
            [
              ("baseline", Config.baseline, None);
              ("dmp", Config.dmp, Some ann);
              ("mpt", Config.dmp_dynamic Dmp_mpp.Mpt.default, None);
            ])
        [ Input_gen.Reduced; Input_gen.Train ])
    Registry.all

let test_selection_deterministic () =
  let linked, _, profile = pipeline "gcc" Input_gen.Reduced in
  let a = Select.run linked profile in
  let b = Select.run linked profile in
  check Alcotest.(list int) "same diverge branches"
    (Annotation.diverge_addrs a) (Annotation.diverge_addrs b)

let test_annotation_kinds_present_across_suite () =
  (* The suite exercises every CFG type of Figure 3. *)
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let linked, _, profile = pipeline name Input_gen.Reduced in
      let ann = Select.run linked profile in
      Annotation.iter
        (fun d ->
          Hashtbl.replace kinds d.Annotation.kind ();
          if d.Annotation.return_cfm then
            Hashtbl.replace kinds Annotation.Frequently_hammock ())
        ann)
    [ "vpr"; "gcc"; "crafty"; "parser"; "twolf"; "li" ];
  List.iter
    (fun k ->
      check Alcotest.bool
        (Annotation.branch_kind_to_string k ^ " present")
        true (Hashtbl.mem kinds k))
    [ Annotation.Simple_hammock; Annotation.Nested_hammock;
      Annotation.Frequently_hammock; Annotation.Loop_branch ]

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "DMP beats baseline" `Slow
            test_all_best_heur_beats_baseline_overall;
          Alcotest.test_case "careful > every-br" `Slow
            test_careful_selection_beats_every_br;
          Alcotest.test_case "cost ~ heuristics" `Slow
            test_cost_model_close_to_heuristics;
          Alcotest.test_case "input-set robustness" `Slow
            test_profile_input_set_robustness;
          Alcotest.test_case "replay = live on every benchmark" `Slow
            test_replay_equals_live_across_suite;
          Alcotest.test_case "deterministic selection" `Quick
            test_selection_deterministic;
          Alcotest.test_case "all CFG kinds selected" `Slow
            test_annotation_kinds_present_across_suite;
          Alcotest.test_case "profiler = machines' predictor" `Slow
            test_profiler_and_machines_share_predictor;
        ] );
    ]
