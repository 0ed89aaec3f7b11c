(* 2D-profiling (Kim, Suleman, Mutlu & Patt [14]; discussed in Section
   8.3 of the CGO paper as a way to improve diverge-branch selection):
   detect input-dependent branches from a *single* profiling run by
   watching how each branch's misprediction rate moves across time
   slices (program phases). A branch whose per-phase misprediction rate
   varies a lot is likely input-dependent; a branch that is easy to
   predict in every phase will likely stay easy under other inputs and
   need not be marked as a diverge branch at all (reducing static
   annotation size and confidence-estimator pressure). *)


open Dmp_exec
open Dmp_predictor

type slice = { executed : int; mispredicted : int }

type branch_phases = {
  addr : int;
  slices : slice array;
  total_executed : int;
  total_mispredicted : int;
}

type t = { num_slices : int; branches : (int, branch_phases) Hashtbl.t }

let collect ?(num_slices = 16) ?(max_insts = max_int) linked ~input =
  let predictor = Perceptron.create () in
  (* The capture's length sizes the slices; event i (from 0) falls in
     slice (i + 1) / slice_len. *)
  let trace = Trace.capture ~max_insts linked ~input in
  let slice_len = max 1 (Trace.length trace / num_slices) in
  let raw : (int, int array * int array) Hashtbl.t = Hashtbl.create 64 in
  let retired = ref 0 in
  Trace.replay trace (fun ~addr ~tag ~p1:_ ~p2:_ ~next:_ ->
      incr retired;
      if tag = Event.tag_branch_taken || tag = Event.tag_branch_not_taken
      then begin
        let taken = tag = Event.tag_branch_taken in
        let slice = min (num_slices - 1) (!retired / slice_len) in
        let ex, mi =
          match Hashtbl.find_opt raw addr with
          | Some p -> p
          | None ->
              let p = (Array.make num_slices 0, Array.make num_slices 0) in
              Hashtbl.replace raw addr p;
              p
        in
        ex.(slice) <- ex.(slice) + 1;
        if Perceptron.resolve predictor ~addr ~taken <> taken then
          mi.(slice) <- mi.(slice) + 1
      end);
  let branches = Hashtbl.create 64 in
  Hashtbl.iter
    (fun addr (ex, mi) ->
      let slices =
        Array.init num_slices (fun i ->
            { executed = ex.(i); mispredicted = mi.(i) })
      in
      Hashtbl.replace branches addr
        {
          addr;
          slices;
          total_executed = Array.fold_left ( + ) 0 ex;
          total_mispredicted = Array.fold_left ( + ) 0 mi;
        })
    raw;
  { num_slices; branches }

let branch t addr = Hashtbl.find_opt t.branches addr

let misp_rate b =
  if b.total_executed = 0 then 0.
  else float_of_int b.total_mispredicted /. float_of_int b.total_executed

(* Per-phase misprediction rates over slices where the branch actually
   executed. *)
let phase_rates b =
  Array.to_list b.slices
  |> List.filter_map (fun s ->
         if s.executed = 0 then None
         else Some (float_of_int s.mispredicted /. float_of_int s.executed))

(* The 2D-profiling metric: standard deviation of the per-phase
   misprediction rate. *)
let phase_std_dev b =
  match phase_rates b with
  | [] | [ _ ] -> 0.
  | rates ->
      let n = float_of_int (List.length rates) in
      let mean = List.fold_left ( +. ) 0. rates /. n in
      let var =
        List.fold_left (fun a r -> a +. ((r -. mean) ** 2.)) 0. rates /. n
      in
      sqrt var

let is_input_dependent ?(threshold = 0.08) t addr =
  match branch t addr with
  | Some b -> phase_std_dev b > threshold
  | None -> false

(* "Always easy to predict": low misprediction rate in *every* phase.
   Such branches can be excluded from diverge-branch selection without
   performance risk (Section 8.3). *)
let is_always_easy ?(rate = 0.02) t addr =
  match branch t addr with
  | Some b -> List.for_all (fun r -> r <= rate) (phase_rates b)
  | None -> false

let fold f t acc = Hashtbl.fold (fun _ b acc -> f b acc) t.branches acc
