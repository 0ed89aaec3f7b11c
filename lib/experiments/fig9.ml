(* Figure 9: effect of profiling with a different input set. The run
   always uses the reduced set; selection uses either the reduced
   profile ("same") or the train profile ("diff"). *)

open Dmp_workload

let variants =
  [
    ("heur-same", Variants.all_best_heur, Input_gen.Reduced);
    ("heur-diff", Variants.all_best_heur, Input_gen.Train);
    ("cost-same", Variants.all_best_cost, Input_gen.Reduced);
    ("cost-diff", Variants.all_best_cost, Input_gen.Train);
  ]

let run runner =
  let names = Runner.names runner in
  (* One batch of the runner's selection stage, keyed by (benchmark,
     profile set, selector): the "same" columns share the figure-5
     selections outright, and when the train profile happens to pick
     the same diverge branches as the reduced one, the batch
     scheduler's fingerprint dedup collapses the simulations too. *)
  let anns =
    Array.of_list
      (Runner.selections runner
         (List.concat_map
            (fun (_, v, profile_set) ->
              List.map
                (fun name ->
                  Runner.request ~set:profile_set name (Runner.variant v))
                names)
            variants))
  in
  let k = List.length names in
  let per_variant =
    List.mapi
      (fun vi (label, _, _) ->
        (label, List.mapi (fun ni name -> (name, anns.((vi * k) + ni))) names))
      variants
  in
  let stats =
    Array.of_list
      (Runner.dmp_batch runner
         (List.concat_map (fun (_, tasks) -> tasks) per_variant))
  in
  let series =
    List.mapi
      (fun vi (label, tasks) ->
        {
          Report.label = label;
          values =
            List.mapi
              (fun ni (name, _) ->
                ( name,
                  Runner.speedup_pct
                    ~base:(Runner.baseline runner name)
                    stats.((vi * k) + ni) ))
              tasks;
        })
      per_variant
  in
  {
    Report.title = "Figure 9: profiling input-set sensitivity";
    unit_label = "% IPC improvement over baseline (run = reduced input)";
    benchmarks = names;
    series;
  }
