(* Figure 5: DMP IPC improvement over the baseline for the cumulative
   heuristic selection algorithms (left) and the cost-benefit model
   variants (right). *)

(* Annotations for a labelled variant list, one per (variant,
   benchmark), resolved in one batch of the runner's selection stage:
   the figures and the serving daemon share one memoized (and
   persisted) selection per (benchmark, input set, selector). *)
let annotations ?(set = Dmp_workload.Input_gen.Reduced) runner variants =
  let names = Runner.names runner in
  let anns =
    Array.of_list
      (Runner.selections runner
         (List.concat_map
            (fun (_, v) ->
              List.map (fun name -> Runner.request ~set name (Runner.variant v))
                names)
            variants))
  in
  let k = List.length names in
  List.mapi
    (fun vi (label, _) ->
      (label, List.mapi (fun ni name -> (name, anns.((vi * k) + ni))) names))
    variants

let run_variants runner variants =
  let names = Runner.names runner in
  (* One selection batch, then one simulation batch: the independent
     DMP simulations — the dominant cost — fan out over the pool. *)
  let per_variant = annotations runner variants in
  let stats =
    Array.of_list
      (Runner.dmp_batch runner
         (List.concat_map (fun (_, tasks) -> tasks) per_variant))
  in
  let k = List.length names in
  List.mapi
    (fun vi (label, tasks) ->
      {
        Report.label = Report.abbreviate label;
        values =
          List.mapi
            (fun ni (name, _) ->
              let base = Runner.baseline runner name in
              (name, Runner.speedup_pct ~base stats.((vi * k) + ni)))
            tasks;
      })
    per_variant

let left runner =
  {
    Report.title = "Figure 5 (left): heuristic diverge-branch selection";
    unit_label = "% IPC improvement over baseline";
    benchmarks = Runner.names runner;
    series = run_variants runner Variants.fig5_left;
  }

let right runner =
  {
    Report.title = "Figure 5 (right): cost-benefit model selection";
    unit_label = "% IPC improvement over baseline";
    benchmarks = Runner.names runner;
    series = run_variants runner Variants.fig5_right;
  }
