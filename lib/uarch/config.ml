(* Machine configuration, following Table 1 of the paper. *)

(* Where diverge decisions get their merge points: the compiled
   annotation table (the paper), or an online Merge Point Table
   (TR-HPS-2020-001) learning them from retired control flow. *)
type merge_provider = Static | Dynamic of Dmp_mpp.Mpt.config

type t = {
  (* Front end. *)
  fetch_width : int;
  max_branches_per_cycle : int;
  front_depth : int;
      (* fetch-to-execute pipeline depth; together with the 1-cycle
         redirect and the execute latency this yields the paper's
         minimum misprediction penalty of 25 cycles *)
  (* Execution core. *)
  rob_size : int;
  retire_width : int;
  int_latency : int;
  mul_latency : int;
  div_latency : int;
  (* Memory system. *)
  l1_log2_sets : int;
  l1_ways : int;
  l1_hit_latency : int;
  l2_log2_sets : int;
  l2_ways : int;
  l2_hit_latency : int;
  line_bytes : int;
  memory_latency : int;
  store_latency : int;
  (* Confidence estimator. *)
  conf_log2_entries : int;
  conf_history_length : int;
  conf_threshold : int;
  (* DMP support. *)
  dmp_enabled : bool;
  select_uop_latency : int;
  max_walk_insts : int;  (* wrong-side fetch walker bound *)
  max_loop_extra_iterations : int;
  merge_provider : merge_provider;
}

let baseline =
  {
    fetch_width = 8;
    max_branches_per_cycle = 3;
    front_depth = 23;
    rob_size = 512;
    retire_width = 8;
    int_latency = 1;
    mul_latency = 3;
    div_latency = 12;
    l1_log2_sets = 8;
    l1_ways = 4;
    l1_hit_latency = 2;
    l2_log2_sets = 11;
    l2_ways = 8;
    l2_hit_latency = 10;
    line_bytes = 64;
    memory_latency = 300;
    store_latency = 1;
    conf_log2_entries = 8;
    conf_history_length = 12;
    conf_threshold = 14;
    dmp_enabled = false;
    select_uop_latency = 1;
    max_walk_insts = 512;
    max_loop_extra_iterations = 3;
    merge_provider = Static;
  }

let dmp = { baseline with dmp_enabled = true }

let dmp_dynamic mpt =
  { baseline with dmp_enabled = true; merge_provider = Dynamic mpt }

let min_misp_penalty t = t.front_depth + 1 + t.int_latency

(* The rows keep the paper's words. Two of its figures are literals:
   the simulator models no return address stack, and the CFM registers
   are the compiler's MAX_CFM ([Dmp_core.Params.max_cfm] = 3), which
   bounds the CFM points per diverge branch. *)
let describe_table1 t =
  [
    ( "Front End",
      Printf.sprintf
        "%d-wide fetch; up to %d conditional branches per cycle; \
         %d-cycle front-end depth (min. misprediction penalty %d cycles)"
        t.fetch_width t.max_branches_per_cycle t.front_depth
        (min_misp_penalty t) );
    ( "Branch Predictors",
      "perceptron predictor; 64-entry return address stack" );
    ( "Execution Core",
      Printf.sprintf
        "%d-wide issue/retire; %d-entry reorder buffer; latencies: \
         int %d, mul %d, div %d"
        t.retire_width t.rob_size t.int_latency t.mul_latency t.div_latency );
    ( "Memory System",
      Printf.sprintf
        "L1 D-cache %d sets x %d ways x %dB, %d-cycle; L2 %d sets x %d \
         ways, %d-cycle; %d-cycle memory"
        (1 lsl t.l1_log2_sets) t.l1_ways t.line_bytes t.l1_hit_latency
        (1 lsl t.l2_log2_sets) t.l2_ways t.l2_hit_latency t.memory_latency );
    ( "DMP Support",
      Printf.sprintf
        "enhanced JRS confidence estimator (2^%d entries, %d-bit \
         history, threshold %d); 3 CFM registers; select-uop latency %d"
        t.conf_log2_entries t.conf_history_length t.conf_threshold
        t.select_uop_latency );
  ]
