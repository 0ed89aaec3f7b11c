(* Sampled hardware-profile collection: periodic / LBR / mispredict-
   event sampling over the same Source stream the exact profiler
   consumes. Free-running totals are exact (PMU fixed counters); the
   per-branch and per-block counters are sparse and scaled back up by
   Reconstruct. Trigger gaps carry a deterministic splitmix-seeded
   jitter of ±period/4 so sampling cannot lock onto loop periods while
   staying bit-reproducible for a given (config, stream). *)

open Dmp_ir
open Dmp_exec
open Dmp_predictor

type mode = Periodic | Lbr of int | Mispredict

type config = { mode : mode; period : int; seed : int }

let default_lbr_depth = 16

let mode_to_string = function
  | Periodic -> "periodic"
  | Lbr k -> Printf.sprintf "lbr%d" k
  | Mispredict -> "misp"

let mode_of_string s =
  match s with
  | "periodic" -> Some Periodic
  | "misp" | "mispredict" -> Some Mispredict
  | "lbr" -> Some (Lbr default_lbr_depth)
  | _ when String.length s > 3 && String.sub s 0 3 = "lbr" -> (
      match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
      | Some k when k > 0 -> Some (Lbr k)
      | Some _ | None -> None)
  | _ -> None

let config_to_string c =
  Printf.sprintf "%s-p%d-s%d" (mode_to_string c.mode) c.period c.seed

type counters = {
  mutable s_executed : int;
  mutable s_taken : int;
  mutable s_mispredicted : int;
}

type t = {
  config : config;
  mutable retired : int;
  mutable total_branches : int;
  mutable total_mispredicted : int;
  mutable samples : int;
  mutable lbr_captured : int;
  block_tbl : (int, int) Hashtbl.t;
  ip_tbl : (int, counters) Hashtbl.t;
  lbr_tbl : (int, counters) Hashtbl.t;
}

(* splitmix64 finaliser: the jitter stream is a pure function of
   (seed, sample index). *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let jitter ~seed ~index =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (Int64.of_int index))
  in
  Int64.to_int (Int64.logand z 0x3fffffffL)

(* Gap to the next trigger: uniform in [period - period/4,
   period + period/4]. period <= 4 has no jitter, so period = 1 samples
   every trigger event. *)
let gap config ~index =
  let q = config.period / 4 in
  if q = 0 then config.period
  else config.period - q + (jitter ~seed:config.seed ~index mod ((2 * q) + 1))

let bump tbl addr ~taken ~misp =
  let c =
    match Hashtbl.find_opt tbl addr with
    | Some c -> c
    | None ->
        let c = { s_executed = 0; s_taken = 0; s_mispredicted = 0 } in
        Hashtbl.replace tbl addr c;
        c
  in
  c.s_executed <- c.s_executed + 1;
  if taken then c.s_taken <- c.s_taken + 1;
  if misp then c.s_mispredicted <- c.s_mispredicted + 1

let collect_source ?(predictor = Predictor.perceptron ())
    ?(max_insts = max_int) ~config linked source =
  if config.period < 1 then
    invalid_arg "Sampler.collect_source: period must be >= 1";
  let ring_depth =
    match config.mode with
    | Periodic -> 0
    | Lbr k ->
        if k < 1 then
          invalid_arg "Sampler.collect_source: LBR depth must be >= 1";
        k
    | Mispredict -> default_lbr_depth
  in
  let t =
    {
      config;
      retired = 0;
      total_branches = 0;
      total_mispredicted = 0;
      samples = 0;
      lbr_captured = 0;
      block_tbl = Hashtbl.create 256;
      ip_tbl = Hashtbl.create 256;
      lbr_tbl = Hashtbl.create 256;
    }
  in
  (* LBR ring: last [ring_depth] conditional-branch records, flushed
     (and cleared) into [lbr_tbl] at each sample. *)
  let ring_addr = Array.make (max 1 ring_depth) 0 in
  let ring_taken = Array.make (max 1 ring_depth) false in
  let ring_misp = Array.make (max 1 ring_depth) false in
  let ring_pos = ref 0 and ring_len = ref 0 in
  let ring_push addr taken misp =
    ring_addr.(!ring_pos) <- addr;
    ring_taken.(!ring_pos) <- taken;
    ring_misp.(!ring_pos) <- misp;
    ring_pos := (!ring_pos + 1) mod ring_depth;
    if !ring_len < ring_depth then incr ring_len
  in
  let ring_flush () =
    let start = (!ring_pos - !ring_len + ring_depth) mod ring_depth in
    for i = 0 to !ring_len - 1 do
      let j = (start + i) mod ring_depth in
      bump t.lbr_tbl ring_addr.(j) ~taken:ring_taken.(j) ~misp:ring_misp.(j)
    done;
    t.lbr_captured <- t.lbr_captured + !ring_len;
    ring_len := 0
  in
  let sample_ix = ref 0 in
  let countdown = ref (gap config ~index:0) in
  let rearm () =
    incr sample_ix;
    countdown := gap config ~index:!sample_ix
  in
  let fire ~is_branch ~addr ~taken ~misp ~next =
    t.samples <- t.samples + 1;
    if is_branch then bump t.ip_tbl addr ~taken ~misp;
    if ring_depth > 0 then ring_flush ();
    if next <> Event.halted_next then begin
      let l = Linked.loc linked next in
      if l.Linked.pos = 0 then
        Hashtbl.replace t.block_tbl next
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.block_tbl next))
    end;
    rearm ()
  in
  let retired = ref 0 in
  while !retired < max_insts && Source.advance source do
    incr retired;
    let is_branch = Source.is_cond_branch source in
    let addr = Source.addr source in
    let taken = is_branch && Source.taken source in
    let misp = ref false in
    if is_branch then begin
      t.total_branches <- t.total_branches + 1;
      if predictor.Predictor.resolve ~addr ~taken <> taken then begin
        misp := true;
        t.total_mispredicted <- t.total_mispredicted + 1
      end;
      if ring_depth > 0 then ring_push addr taken !misp
    end;
    match config.mode with
    | Periodic | Lbr _ ->
        decr countdown;
        if !countdown <= 0 then
          fire ~is_branch ~addr ~taken ~misp:!misp
            ~next:(Source.next_addr source)
    | Mispredict ->
        if !misp then begin
          decr countdown;
          if !countdown <= 0 then
            fire ~is_branch ~addr ~taken ~misp:!misp
              ~next:(Source.next_addr source)
        end
  done;
  t.retired <- !retired;
  t

let collect_trace ?predictor ?max_insts ~config linked trace =
  collect_source ?predictor ?max_insts ~config linked (Source.replay trace)

let config t = t.config

let complete_coverage t =
  t.config.mode = Periodic && t.config.period = 1

let retired t = t.retired
let total_branches t = t.total_branches
let total_mispredicted t = t.total_mispredicted
let samples t = t.samples
let lbr_captured t = t.lbr_captured

let block_hits t =
  Hashtbl.fold (fun addr hits acc -> (addr, hits) :: acc) t.block_tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let block_hit t ~addr =
  Option.value ~default:0 (Hashtbl.find_opt t.block_tbl addr)

let sorted_addrs tbl =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) tbl [] |> List.sort Int.compare

let ip_branch t ~addr = Hashtbl.find_opt t.ip_tbl addr
let ip_branch_addrs t = sorted_addrs t.ip_tbl
let lbr_branch t ~addr = Hashtbl.find_opt t.lbr_tbl addr
let lbr_branch_addrs t = sorted_addrs t.lbr_tbl
