(* Three-way CFM comparison: the comparison the literature never ran in
   one harness — profile-guided compile-time CFM selection (this paper)
   vs dynamic merge-point prediction (TR-HPS-2020-001) vs the oracle
   IPOSDOM annotation, per benchmark.

   The static axis covers the exact-profile selector, the exact+freq
   heuristic stack, and the stale-profile story: all-best-heur run on
   profiles reconstructed from periodic hardware samples (PR 4) at
   increasingly sparse periods. The dynamic axis covers two Merge Point
   Table geometries. Oracle rows simulate the IPOSDOM annotation under
   the static machinery.

   All Config.dmp tasks (static + oracle) go through one
   Runner.dmp_batch; each dynamic table geometry is its own batch under
   its own configuration — the batch boundary is the configuration, so
   every batch still sees all benchmarks at once and the output is
   byte-identical for any -j value. *)

open Dmp_core
module Sampler = Dmp_sampling.Sampler
module Mpt = Dmp_mpp.Mpt

type variant =
  | V_static of string * Variants.t * int option
      (* label, selector, sampling period (None = exact profile) *)
  | V_dynamic of string * Mpt.config
  | V_oracle

type row = {
  provider : string;
  variant : string;
  bench : string;
  ipc : float;
  accuracy : float;  (* dpred episodes that merged at the CFM point *)
  coverage : float;  (* low-confidence branches that entered dpred *)
  warmup : int option;  (* retired count at the MPT's first answer *)
}

let seed = 42
let default_periods = [ 1_000; 100_000 ]

let mpt_label (m : Mpt.config) =
  Printf.sprintf "mpt-%dx%d" (1 lsl m.Mpt.log2_sets) m.Mpt.ways

let variants ?periods () =
  let periods = Option.value ~default:default_periods periods in
  [
    V_static ("exact", Variants.all_best_heur, None);
    V_static ("freq", Variants.exact_freq, None);
  ]
  @ List.map
      (fun p ->
        V_static (Printf.sprintf "stale-%d" p, Variants.all_best_heur, Some p))
      periods
  @ [
      V_dynamic (mpt_label Mpt.default, Mpt.default);
      V_dynamic (mpt_label Mpt.small, Mpt.small);
      V_oracle;
    ]

let provider_of = function
  | V_static _ -> "static"
  | V_dynamic _ -> "dynamic"
  | V_oracle -> "oracle"

let variant_label = function
  | V_static (l, _, _) -> l
  | V_dynamic (l, _) -> l
  | V_oracle -> "iposdom"

let ratio num den =
  if den <= 0 then 0. else float_of_int num /. float_of_int den

let rec split_at n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: tl ->
        let a, b = split_at (n - 1) tl in
        (x :: a, b)

let run ?periods runner =
  let vs = variants ?periods () in
  let names = Runner.names runner in
  let nb = List.length names in
  (* Every static selection in one batch of the runner's selection
     stage: "exact" is all-best-heur's key and each stale-<p> shares the
     profile-fidelity sweep's periodic key for that period. *)
  let statics =
    List.filter_map
      (function
        | V_static (label, v, period) -> Some (label, v, period)
        | V_dynamic _ | V_oracle -> None)
      vs
  in
  let selected =
    Runner.selections runner
      (List.concat_map
         (fun (_, v, period) ->
           let source =
             match period with
             | None -> Runner.Exact_profile
             | Some period ->
                 Runner.Sampled_profile
                   { Sampler.mode = Sampler.Periodic; period; seed }
           in
           List.map
             (fun name -> Runner.request ~source name (Runner.variant v))
             names)
         statics)
  in
  let by_label =
    List.mapi
      (fun i (label, _, _) ->
        (label, List.filteri (fun j _ -> j / nb = i) selected))
      statics
  in
  let tasks v =
    List.combine names
      (match v with
      | V_static (label, _, _) -> List.assoc label by_label
      | V_oracle ->
          List.map
            (fun name -> Dmp_mpp.Oracle.annotation (Runner.linked runner name))
            names
      | V_dynamic _ -> List.map (fun _ -> Annotation.empty ()) names)
  in
  let static_vs, dynamic_vs =
    List.partition (function V_dynamic _ -> false | _ -> true) vs
  in
  (* One batch for everything simulated under Config.dmp... *)
  let static_stats =
    Runner.dmp_batch runner (List.concat_map tasks static_vs)
  in
  (* ...then one batch per Merge Point Table geometry. *)
  let dynamic_stats =
    List.map
      (fun v ->
        match v with
        | V_dynamic (_, mcfg) ->
            Runner.dmp_batch runner
              ~config:(Dmp_uarch.Config.dmp_dynamic mcfg)
              (tasks v)
        | V_static _ | V_oracle -> assert false)
      dynamic_vs
  in
  let rows_of v stats =
    List.map2
      (fun bench (s : Dmp_uarch.Stats.t) ->
        {
          provider = provider_of v;
          variant = variant_label v;
          bench;
          ipc = Dmp_uarch.Stats.ipc s;
          accuracy =
            ratio s.Dmp_uarch.Stats.dpred_merges
              s.Dmp_uarch.Stats.dpred_hammock_entries;
          coverage =
            ratio s.Dmp_uarch.Stats.dpred_entries
              s.Dmp_uarch.Stats.low_confidence;
          warmup =
            (match v with
            | V_dynamic _ -> Some s.Dmp_uarch.Stats.mpp_warmup_retired
            | V_static _ | V_oracle -> None);
        })
      names stats
  in
  let static_rows =
    let _, rows =
      List.fold_left
        (fun (rest, acc) v ->
          let stats, rest = split_at nb rest in
          (rest, acc @ rows_of v stats))
        (static_stats, []) static_vs
    in
    rows
  in
  let dynamic_rows = List.concat (List.map2 rows_of dynamic_vs dynamic_stats) in
  (* Present in declared variant order: static, dynamic, oracle last. *)
  let rows = static_rows @ dynamic_rows in
  List.stable_sort
    (fun a b ->
      let rank r =
        match r.provider with
        | "oracle" -> 2
        | "dynamic" -> 1
        | _ -> 0
      in
      compare (rank a) (rank b))
    rows

let render rows =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "== CFM comparison: static (profile-guided) vs dynamic (MPT) vs oracle \
     (IPOSDOM) ==\n";
  add "%-8s %-12s %-10s %8s %9s %9s %9s\n" "provider" "variant" "bench" "IPC"
    "accuracy" "coverage" "warmup";
  List.iter
    (fun r ->
      add "%-8s %-12s %-10s %8.3f %9.3f %9.3f %9s\n" r.provider r.variant
        r.bench r.ipc r.accuracy r.coverage
        (match r.warmup with Some w -> string_of_int w | None -> "-"))
    rows;
  (* Per-variant arithmetic means over the benchmarks. *)
  let keys = ref [] in
  List.iter
    (fun r ->
      let k = (r.provider, r.variant) in
      if not (List.mem k !keys) then keys := k :: !keys)
    rows;
  add "-- amean over benchmarks --\n";
  add "%-8s %-12s %8s %9s %9s\n" "provider" "variant" "IPC" "accuracy"
    "coverage";
  List.iter
    (fun (p, v) ->
      let sel = List.filter (fun r -> r.provider = p && r.variant = v) rows in
      let mean f = Runner.amean (List.map f sel) in
      add "%-8s %-12s %8.3f %9.3f %9.3f\n" p v
        (mean (fun r -> r.ipc))
        (mean (fun r -> r.accuracy))
        (mean (fun r -> r.coverage)))
    (List.rev !keys);
  Buffer.contents buf
