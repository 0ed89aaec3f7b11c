(* Profile-fidelity sweep: how much annotation quality and DMP
   performance survive when the selection pipeline runs on profiles
   reconstructed from sparse hardware samples instead of the exact
   instrumentation profile.

   For every (sampling mode, period) combination the sweep collects a
   sampled profile per benchmark (Sampler over the shared packed trace,
   Reconstruct back to a dense profile), runs the reference selector
   (all-best-heur) on it, and compares against the exact-profile
   annotation by

   - Jaccard similarity of the diverge-branch address sets,
   - Jaccard similarity of the (diverge branch, CFM address) pair sets,
   - mean DMP IPC delta (sampled annotation vs exact annotation, both
     simulated), and
   - whether the rendered annotations are byte-for-byte identical
     across the whole suite — which period-1 periodic sampling must
     achieve by construction.

   All selections (exact and every combination) go through one batch
   of the runner's selection stage and all simulations through one
   Runner.dmp_batch, so the domain pool sees every independent task at
   once and the output stays byte-identical for any -j value. *)

open Dmp_core
module Sampler = Dmp_sampling.Sampler

type row = {
  mode : Sampler.mode;
  period : int;
  jaccard_diverge : float;
  jaccard_cfm : float;
  ipc_delta_pct : float;
  exact_bytes : bool;
}

let seed = 42
let default_periods = [ 1; 100; 1_000; 10_000; 100_000 ]
let default_modes = [ Sampler.Periodic; Sampler.Lbr 16; Sampler.Mispredict ]

let jaccard compare a b =
  let a = List.sort_uniq compare a and b = List.sort_uniq compare b in
  match (a, b) with
  | [], [] -> 1.
  | _ ->
      let rec go i u a b =
        match (a, b) with
        | [], rest | rest, [] -> (i, u + List.length rest)
        | x :: xs, y :: ys ->
            let c = compare x y in
            if c = 0 then go (i + 1) (u + 1) xs ys
            else if c < 0 then go i (u + 1) xs (y :: ys)
            else go i (u + 1) (x :: xs) ys
      in
      let i, u = go 0 0 a b in
      float_of_int i /. float_of_int u

let cfm_pairs ann =
  Annotation.fold
    (fun d acc ->
      List.fold_left
        (fun acc c -> (d.Annotation.branch_addr, c.Annotation.cfm_addr) :: acc)
        acc d.Annotation.cfms)
    ann []

let rec split_at n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: tl ->
        let a, b = split_at (n - 1) tl in
        (x :: a, b)

let run ?periods ?modes runner =
  let periods = Option.value ~default:default_periods periods in
  let modes = Option.value ~default:default_modes modes in
  let names = Runner.names runner in
  let nb = List.length names in
  let combos =
    List.concat_map
      (fun mode -> List.map (fun period -> (mode, period)) periods)
      modes
  in
  (* The exact column and every sampled combination in one batch of the
     selection stage, which also fans the sampled-profile collections
     across the pool. *)
  let sources =
    Runner.Exact_profile
    :: List.map
         (fun (mode, period) ->
           Runner.Sampled_profile { Sampler.mode; period; seed })
         combos
  in
  let selector = Runner.variant Variants.all_best_heur in
  let requests =
    List.concat_map
      (fun source ->
        List.map (fun name -> Runner.request ~source name selector) names)
      sources
  in
  let tasks =
    List.map2
      (fun (r : Runner.request) ann -> (r.bench, ann))
      requests
      (Runner.selections runner requests)
  in
  let exact, combo_tasks = split_at nb tasks in
  let exact_stats, combo_stats =
    split_at nb (Runner.dmp_batch runner tasks)
  in
  let _, _, rows =
    List.fold_left
      (fun (tasks, stats, rows) (mode, period) ->
        let anns, tasks = split_at nb tasks in
        let sampled_stats, stats = split_at nb stats in
        let per_bench f = Runner.amean (List.map2 f exact anns) in
        let jaccard_diverge =
          per_bench (fun (_, e) (_, s) ->
              jaccard Int.compare
                (Annotation.diverge_addrs e)
                (Annotation.diverge_addrs s))
        in
        let jaccard_cfm =
          per_bench (fun (_, e) (_, s) ->
              jaccard compare (cfm_pairs e) (cfm_pairs s))
        in
        let ipc_delta_pct =
          Runner.amean
            (List.map2
               (fun base s -> Runner.speedup_pct ~base s)
               exact_stats sampled_stats)
        in
        let exact_bytes =
          List.for_all2
            (fun (_, e) (_, s) ->
              String.equal (Annotation.to_string e) (Annotation.to_string s))
            exact anns
        in
        ( tasks,
          stats,
          { mode; period; jaccard_diverge; jaccard_cfm; ipc_delta_pct;
            exact_bytes }
          :: rows ))
      (combo_tasks, combo_stats, []) combos
  in
  List.rev rows

let render rows =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== Profile fidelity: sampled vs exact profiles (all-best-heur) ==\n";
  add "%-10s %8s %8s %8s %8s  %s\n" "mode" "period" "jac-div" "jac-cfm"
    "dIPC%" "ann=exact";
  List.iter
    (fun r ->
      add "%-10s %8d %8.3f %8.3f %8.2f  %s\n"
        (Sampler.mode_to_string r.mode)
        r.period r.jaccard_diverge r.jaccard_cfm r.ipc_delta_pct
        (if r.exact_bytes then "yes" else "no"))
    rows;
  Buffer.contents buf
