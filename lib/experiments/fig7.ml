(* Figure 7: sensitivity of Alg-exact + Alg-freq to the MAX_INSTR and
   MIN_MERGE_PROB thresholds. Reports the mean IPC improvement for each
   (MAX_INSTR, MIN_MERGE_PROB) combination. *)

open Dmp_core

type point = {
  max_instr : int;
  min_merge_prob : float;
  mean_improvement : float;
}

let default_max_instrs = [ 10; 50; 100; 200 ]
let default_merge_probs = [ 0.01; 0.05; 0.30; 0.60; 0.90 ]

let run ?(max_instrs = default_max_instrs)
    ?(merge_probs = default_merge_probs) runner =
  let names = Runner.names runner in
  let points =
    List.concat_map
      (fun max_instr ->
        List.map (fun min_merge_prob -> (max_instr, min_merge_prob))
          merge_probs)
      max_instrs
  in
  let selector (max_instr, min_merge_prob) =
    Runner.Compiler
      { Select.mode = Select.Heuristic;
        techniques = [ Select.Exact; Select.Freq ];
        params =
          { Params.default with
            Params.max_instr;
            max_cbr = max 1 (max_instr / 10);
            min_merge_prob } }
  in
  (* The 20 x 17 grid's selections go through one batch of the
     selection stage (the (50, 1%) point is exact+freq's key), then its
     independent simulations through one DMP batch. *)
  let requests =
    List.concat_map
      (fun p -> List.map (fun name -> Runner.request name (selector p)) names)
      points
  in
  let stats =
    Array.of_list
      (Runner.dmp_batch runner
         (List.map2
            (fun (r : Runner.request) ann -> (r.bench, ann))
            requests
            (Runner.selections runner requests)))
  in
  let k = List.length names in
  List.mapi
    (fun pi (max_instr, min_merge_prob) ->
      let improvements =
        List.mapi
          (fun ni name ->
            Runner.speedup_pct
              ~base:(Runner.baseline runner name)
              stats.((pi * k) + ni))
          names
      in
      { max_instr; min_merge_prob;
        mean_improvement = Runner.amean improvements })
    points

let render points =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== Figure 7: MAX_INSTR x MIN_MERGE_PROB sensitivity ==\n";
  add "(mean %% IPC improvement, Alg-exact + Alg-freq only)\n";
  let instrs =
    List.sort_uniq compare (List.map (fun p -> p.max_instr) points)
  in
  let probs =
    List.sort_uniq compare (List.map (fun p -> p.min_merge_prob) points)
  in
  add "%-18s" "MIN_MERGE_PROB";
  List.iter (fun i -> add " MAX_INSTR=%-4d" i) instrs;
  add "\n";
  List.iter
    (fun prob ->
      add "%-18s" (Printf.sprintf "%.0f%%" (prob *. 100.));
      List.iter
        (fun i ->
          match
            List.find_opt
              (fun p -> p.max_instr = i && p.min_merge_prob = prob)
              points
          with
          | Some p -> add " %13.2f " p.mean_improvement
          | None -> add " %13s " "-")
        instrs;
      add "\n")
    probs;
  Buffer.contents buf
