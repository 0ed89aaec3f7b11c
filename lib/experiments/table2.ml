(* Table 2: benchmark characteristics under the reduced input set with
   All-best-heur diverge-branch selection. *)

open Dmp_ir
open Dmp_core
open Dmp_uarch

type row = {
  name : string;
  base_ipc : float;
  mpki : float;
  insts : int;
  static_branches : int;
  diverge_branches : int;
  avg_cfm : float;
}

let compute runner =
  let names = Runner.names runner in
  let heur = Runner.variant Variants.all_best_heur in
  List.map2
    (fun name ann ->
      let linked = Runner.linked runner name in
      let base = Runner.baseline runner name in
      {
        name;
        base_ipc = Stats.ipc base;
        mpki = Stats.mpki base;
        insts = base.Stats.retired;
        static_branches =
          Program.static_conditional_branches linked.Linked.program;
        diverge_branches = Annotation.count ann;
        avg_cfm = Annotation.average_cfm_count ann;
      })
    names
    (Runner.selections runner
       (List.map (fun name -> Runner.request name heur) names))

let render rows =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== Table 2: benchmark characteristics ==\n";
  add "%-10s %8s %6s %9s %8s %10s %8s\n" "bench" "BaseIPC" "MPKI" "Insts"
    "All br." "Diverge br." "Avg#CFM";
  List.iter
    (fun r ->
      add "%-10s %8.2f %6.1f %9d %8d %10d %8.2f\n" r.name r.base_ipc r.mpki
        r.insts r.static_branches r.diverge_branches r.avg_cfm)
    rows;
  Buffer.contents buf
