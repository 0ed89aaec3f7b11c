(* Software predication vs hardware dynamic predication vs both
   combined — the comparison the paper's introduction gestures at but
   never runs in one harness. Three data points per benchmark, all on
   the same input:

     sw    the Dmp_transform pipeline (select-based if-conversion +
           DARM-style melding) applied to the binary, simulated on the
           plain baseline machine — predication with zero hardware
           support;
     hw    the original binary under the all-best-heur DMP annotation
           on the DMP machine — the paper's own configuration;
     both  the transformed binary re-profiled, re-selected
           (all-best-heur on the transformed program's own profile)
           and simulated on the DMP machine — software removes the
           cheap hammocks, hardware covers what remains.

   The transformed binary is just another Runner program: the hw and
   both columns are one Runner.dmp_batch each, so both follow the
   runner's simulation mode and share its pool and dedup memo, and the
   per-benchmark baselines fan over a pool of the runner's width. Every
   stage is deterministic and every fan-out preserves submission order,
   so the report is byte-identical for any -j value. *)

open Dmp_core
open Dmp_workload
module T = Dmp_transform

type row = {
  bench : string;
  shape : string;  (* dominant CFG shape among selected diverge branches *)
  tstats : T.Stats.t;  (* what the software pipeline rewrote, and why not *)
  base_ipc : float;  (* original binary, baseline machine *)
  sw_ipc : float;  (* transformed binary, baseline machine *)
  hw_ipc : float;  (* original binary + annotation, DMP machine *)
  both_ipc : float;  (* transformed binary + re-selection, DMP machine *)
}

(* Dominant structural shape of the benchmark's selected diverge
   branches, mirroring the checker generator's classification: loop
   branches, always-predicate (short) hammocks, return CFMs, then the
   three hammock kinds. Ties resolve to the earlier class. *)
let shape_of_annotation ann =
  let simple = ref 0 and nested = ref 0 and freq = ref 0 in
  let shortc = ref 0 and retc = ref 0 and loopc = ref 0 in
  Annotation.iter
    (fun d ->
      match d.Annotation.kind with
      | Annotation.Loop_branch -> incr loopc
      | _ when d.Annotation.always_predicate -> incr shortc
      | _ when d.Annotation.return_cfm -> incr retc
      | Annotation.Simple_hammock -> incr simple
      | Annotation.Nested_hammock -> incr nested
      | Annotation.Frequently_hammock -> incr freq)
    ann;
  let counts =
    [ ("simple", !simple); ("nested", !nested); ("freq", !freq);
      ("short", !shortc); ("ret", !retc); ("loop", !loopc) ]
  in
  let best =
    List.fold_left
      (fun acc (n, c) ->
        match acc with
        | Some (_, b) when b >= c -> acc
        | _ -> if c > 0 then Some (n, c) else acc)
      None counts
  in
  match best with Some (n, _) -> n | None -> "none"

let run ?(tconfig = T.Pass_config.default) runner =
  let names = Runner.names runner in
  let set = Input_gen.Reduced in
  let heur = Runner.variant Variants.all_best_heur in
  (* The original and the transformed programs' selections, in one
     batch of the runner's selection stage. *)
  let anns, tanns =
    let requests source =
      List.map (fun n -> Runner.request ~set ~source n heur) names
    in
    let all =
      Runner.selections runner
        (requests Runner.Exact_profile
        @ requests (Runner.Transformed_profile tconfig))
    in
    let nb = List.length names in
    ( List.combine names (List.filteri (fun i _ -> i < nb) all),
      List.filteri (fun i _ -> i >= nb) all )
  in
  let program = Runner.Transformed tconfig in
  (* The baselines go first: their pool also runs each benchmark's
     transform, which the combined batch's keys then find in the memo. *)
  let sw =
    Dmp_exec.Pool.with_pool ?jobs:(Runner.jobs runner) (fun pool ->
        Dmp_exec.Pool.map pool
          ~f:(fun name ->
            ( Runner.transform ~tconfig runner name set,
              Runner.baseline ~set runner name,
              Runner.baseline ~program ~set runner name ))
          names)
  in
  let hw = Runner.dmp_batch runner anns in
  let both = Runner.dmp_batch ~program runner (List.combine names tanns) in
  List.map2
    (fun ((name, ann), (hws, both)) (r, base, sw) ->
      {
        bench = name;
        shape = shape_of_annotation ann;
        tstats = r.T.Pipeline.stats;
        base_ipc = Dmp_uarch.Stats.ipc base;
        sw_ipc = Dmp_uarch.Stats.ipc sw;
        hw_ipc = Dmp_uarch.Stats.ipc hws;
        both_ipc = Dmp_uarch.Stats.ipc both;
      })
    (List.combine anns (List.combine hw both))
    sw

let pct base ipc = if base <= 0. then 0. else (ipc /. base -. 1.) *. 100.

let render rows =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "== sw-vs-hw: software predication (if-convert+meld) vs DMP vs \
     combined ==\n";
  add "%-10s %-7s %4s %4s %5s %4s %8s %8s %8s %8s %7s %7s %7s\n" "bench"
    "shape" "conv" "meld" "hoist" "sel" "base" "sw" "hw" "both" "sw%"
    "hw%" "both%";
  List.iter
    (fun r ->
      add "%-10s %-7s %4d %4d %5d %4d %8.3f %8.3f %8.3f %8.3f %7.2f %7.2f \
           %7.2f\n"
        r.bench r.shape r.tstats.T.Stats.converted r.tstats.T.Stats.melded
        r.tstats.T.Stats.hoisted r.tstats.T.Stats.selects r.base_ipc
        r.sw_ipc r.hw_ipc r.both_ipc
        (pct r.base_ipc r.sw_ipc)
        (pct r.base_ipc r.hw_ipc)
        (pct r.base_ipc r.both_ipc))
    rows;
  (* Speedup means per dominant CFG shape (first-appearance order),
     then over the whole suite. *)
  add "-- amean speedup vs base, by dominant CFG shape --\n";
  add "%-10s %4s %7s %7s %7s\n" "shape" "n" "sw%" "hw%" "both%";
  let shapes = ref [] in
  List.iter
    (fun r -> if not (List.mem r.shape !shapes) then shapes := r.shape :: !shapes)
    rows;
  let group label sel =
    let mean f = Runner.amean (List.map f sel) in
    add "%-10s %4d %7.2f %7.2f %7.2f\n" label (List.length sel)
      (mean (fun r -> pct r.base_ipc r.sw_ipc))
      (mean (fun r -> pct r.base_ipc r.hw_ipc))
      (mean (fun r -> pct r.base_ipc r.both_ipc))
  in
  List.iter
    (fun s -> group s (List.filter (fun r -> r.shape = s) rows))
    (List.rev !shapes);
  group "all" rows;
  Buffer.contents buf
