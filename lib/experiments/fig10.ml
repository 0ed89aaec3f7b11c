(* Figure 10: overlap of the diverge branches selected when profiling
   with the run-time (reduced) input set versus the train input set,
   weighted by each branch's dynamic execution count in the actual run.
   Classes: only-run, only-train, either-run-train. *)

open Dmp_core
open Dmp_profile
open Dmp_workload

type row = {
  name : string;
  pct_only_run : float;
  pct_only_train : float;
  pct_either : float;
}

let run runner =
  let names = Runner.names runner in
  let nb = List.length names in
  let requests set =
    List.map
      (fun name ->
        Runner.request ~set name (Runner.variant Variants.all_best_heur))
      names
  in
  let anns =
    Runner.selections runner
      (requests Input_gen.Reduced @ requests Input_gen.Train)
  in
  let runs = List.filteri (fun i _ -> i < nb) anns in
  let trains = List.filteri (fun i _ -> i >= nb) anns in
  List.map2
    (fun name (a_run, a_train) ->
      let p_run = Runner.profile runner name Input_gen.Reduced in
      let weight addr = Profile.executed p_run ~addr in
      let addrs =
        List.sort_uniq Int.compare
          (Annotation.diverge_addrs a_run @ Annotation.diverge_addrs a_train)
      in
      let only_run, only_train, either =
        List.fold_left
          (fun (r, t, e) addr ->
            let w = weight addr in
            match
              (Annotation.is_diverge a_run addr,
               Annotation.is_diverge a_train addr)
            with
            | true, true -> (r, t, e + w)
            | true, false -> (r + w, t, e)
            | false, true -> (r, t + w, e)
            | false, false -> (r, t, e))
          (0, 0, 0) addrs
      in
      let total = only_run + only_train + either in
      let pct x =
        if total = 0 then 0. else 100. *. float_of_int x /. float_of_int total
      in
      {
        name;
        pct_only_run = pct only_run;
        pct_only_train = pct only_train;
        pct_either = pct either;
      })
    names (List.combine runs trains)

let render rows =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== Figure 10: diverge-branch overlap across profiling input sets ==\n";
  add "(%% of dynamic diverge-branch executions in the run input)\n";
  add "%-10s %10s %11s %13s\n" "bench" "only-run" "only-train"
    "either";
  List.iter
    (fun r ->
      add "%-10s %10.1f %11.1f %13.1f\n" r.name r.pct_only_run
        r.pct_only_train r.pct_either)
    rows;
  Buffer.contents buf
