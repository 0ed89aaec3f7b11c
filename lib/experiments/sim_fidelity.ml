(* Simulation-fidelity report: the checkpoint-segmented and the
   interval-sampled simulation modes against the exact simulation, per
   benchmark, under the reference selector (all-best-heur).

   Segmented mode re-simulates the exact run's own checkpointed
   segments and merges the per-segment deltas, so its statistics must
   be byte-for-byte identical to the exact ones — the report asserts
   that, and CI greps for the resulting "segmented: byte-identical"
   line. Sampled mode restores shared annotation-independent reference
   checkpoints and extrapolates a warmup+window measurement per
   segment, so its IPC is an estimate; the report shows the per-bench
   and worst-case relative error, quantifying what the speed of
   [--sim-sampling] costs in accuracy.

   All simulations go through Runner.dmp_batch (one batch per mode), so
   the domain pool sees every independent task at once and the output
   stays byte-identical for any -j value. *)

open Dmp_uarch
open Dmp_workload

type row = {
  name : string;
  ipc_exact : float;
  ipc_seg : float;
  err_seg_pct : float;
  seg_bytes : bool;  (* segmented stats byte-identical to exact stats *)
  ipc_samp : float;
  err_samp_pct : float;
}

let default_segments = 4
let default_warmup = 2_000
let default_window = 10_000

let err_pct ~exact ipc = if exact = 0. then 0. else (ipc /. exact -. 1.) *. 100.

let run ?(segments = default_segments) ?(warmup = default_warmup)
    ?(window = default_window) runner =
  let names = Runner.names runner in
  let set = Input_gen.Reduced in
  let anns =
    List.combine names
      (Runner.selections runner
         (List.map
            (fun name ->
              Runner.request ~set name (Runner.variant Variants.all_best_heur))
            names))
  in
  let exact = Runner.dmp_batch ~set ~mode:Runner.Exact runner anns in
  let seg =
    Runner.dmp_batch ~set ~mode:(Runner.Segmented segments) runner anns
  in
  let samp =
    Runner.dmp_batch ~set
      ~mode:(Runner.Sampled { segments; warmup; window })
      runner anns
  in
  List.map2
    (fun name (e, (sg, sa)) ->
      let ipc_exact = Stats.ipc e in
      {
        name;
        ipc_exact;
        ipc_seg = Stats.ipc sg;
        err_seg_pct = err_pct ~exact:ipc_exact (Stats.ipc sg);
        seg_bytes = Marshal.to_string sg [] = Marshal.to_string e [];
        ipc_samp = Stats.ipc sa;
        err_samp_pct = err_pct ~exact:ipc_exact (Stats.ipc sa);
      })
    names
    (List.combine exact (List.combine seg samp))

let render rows =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== Simulation fidelity: segmented / sampled vs exact ==\n";
  add "%-14s %9s %9s %9s %9s %9s\n" "bench" "ipc-exact" "ipc-seg" "err-seg%"
    "ipc-samp" "err-samp%";
  List.iter
    (fun r ->
      add "%-14s %9.3f %9.3f %9.2f %9.3f %9.2f\n" r.name r.ipc_exact
        r.ipc_seg r.err_seg_pct r.ipc_samp r.err_samp_pct)
    rows;
  let all_seg_exact = List.for_all (fun r -> r.seg_bytes) rows in
  let max_samp =
    List.fold_left (fun m r -> Float.max m (Float.abs r.err_samp_pct)) 0. rows
  in
  add "segmented: %s\n"
    (if all_seg_exact then "byte-identical" else "DIVERGED");
  add "sampled: max |err| %.2f%%\n" max_samp;
  Buffer.contents buf
