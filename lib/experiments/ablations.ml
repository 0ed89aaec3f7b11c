(* Ablations of the design choices DESIGN.md calls out:

   1. confidence-estimator threshold (coverage/accuracy trade-off,
      paper footnote 5: performance is not sensitive to reasonable
      Acc_Conf variation);
   2. CFM points vs pure dual-path execution (what the merge points
      actually buy, cf. footnote 2);
   3. chain-of-CFM-point reduction on/off (Section 3.3.1);
   4. liveness-based select-µop counting vs counting every written
      register;
   5. 2D-profiling pre-filter (Section 8.3 extension): annotation-size
      reduction at equal performance. *)

open Dmp_core
open Dmp_uarch

type row = { label : string; mean_improvement : float; note : string }

let mean_improvement runner ?(config = Config.dmp) tasks =
  let stats = Runner.dmp_batch ~config runner tasks in
  Runner.amean
    (List.map2
       (fun (name, _) s ->
         Runner.speedup_pct ~base:(Runner.baseline runner name) s)
       tasks stats)

let strip_cfms ann =
  (* Dual-path: keep the diverge branches but remove every CFM point,
     return CFM and loop designation, so dpred-mode only ends at branch
     resolution. *)
  let out = Annotation.empty () in
  Annotation.iter
    (fun d ->
      match d.Annotation.kind with
      | Annotation.Loop_branch -> ()
      | _ ->
          Annotation.add out
            { d with Annotation.cfms = []; return_cfm = false;
              always_predicate = false })
    ann;
  out

(* Instructions of the 2D profile behind the pre-filter. *)
let two_d_insts = 200_000

let run runner =
  let names = Runner.names runner in
  let stack = Runner.Compiler Select.all_heuristic in
  let with_params params =
    Runner.Compiler { Select.all_heuristic with Select.params }
  in
  (* Every selection the ablations make, in one batch of the runner's
     selection stage: the default stack (all-best-heur's key, shared
     with the figures), the two knob variants, and the default stack
     behind the 2D pre-filter. *)
  let specs =
    [
      (stack, None);
      ( with_params { Params.default with Params.chain_reduction = false },
        None );
      (with_params { Params.default with Params.live_selects = false }, None);
      (stack, Some two_d_insts);
    ]
  in
  let anns =
    Runner.selections runner
      (List.concat_map
         (fun (sel, two_d) ->
           List.map (fun name -> Runner.request ?two_d name sel) names)
         specs)
  in
  let nb = List.length names in
  let tasks i =
    List.combine names (List.filteri (fun j _ -> j / nb = i) anns)
  in
  let best = tasks 0 and filtered = tasks 3 in
  let heur = mean_improvement runner best in
  let dual =
    mean_improvement runner (List.map (fun (n, a) -> (n, strip_cfms a)) best)
  in
  let no_chain = mean_improvement runner (tasks 1) in
  let all_defs = mean_improvement runner (tasks 2) in
  let conf t =
    mean_improvement runner
      ~config:{ Config.dmp with Config.conf_threshold = t }
      best
  in
  let c8 = conf 8 and c11 = conf 11 and c14 = conf 14 in
  (* 2D pre-filter: performance and static annotation size. *)
  let count tasks =
    List.fold_left (fun acc (_, a) -> acc + Annotation.count a) 0 tasks
  in
  let plain_count = count best and filtered_count = count filtered in
  let two_d_perf = mean_improvement runner filtered in
  [
    { label = "all-best-heur"; mean_improvement = heur; note = "reference" };
    { label = "dual-path (no CFM points)"; mean_improvement = dual;
      note = "what the compiler's merge points buy" };
    { label = "no chain reduction"; mean_improvement = no_chain;
      note = "Section 3.3.1 off" };
    { label = "selects = all defs"; mean_improvement = all_defs;
      note = "no liveness filtering of select-uops" };
    { label = "conf threshold 8"; mean_improvement = c8;
      note = "more coverage, lower PVN" };
    { label = "conf threshold 11"; mean_improvement = c11; note = "" };
    { label = "conf threshold 14 (default)"; mean_improvement = c14;
      note = "" };
    { label = "2D-profiling pre-filter"; mean_improvement = two_d_perf;
      note =
        Printf.sprintf "static diverge branches %d -> %d" plain_count
          filtered_count };
  ]

let render rows =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== Ablations (mean %% IPC improvement over baseline) ==\n";
  List.iter
    (fun r ->
      add "%-30s %8.2f   %s\n" r.label r.mean_improvement r.note)
    rows;
  Buffer.contents buf
