(* Cycle-level execution-driven simulator of the baseline processor and
   the diverge-merge processor (DMP).

   The correct path is the architectural event stream, read from a
   pre-decoded [Image.t] with per-event array reads; wrong-path and
   dynamically-predicated wrong-side fetch walk the static code under
   the branch predictor with a speculative history copy. Timing comes
   from a dataflow model: every fetched instruction dispatches
   [front_depth] cycles after fetch, starts when its source registers
   are ready, and completes after its latency (loads ask the cache
   hierarchy). Retirement is in-order through a reorder buffer; fetch
   stalls when the ROB is full.

   Modelling simplifications (documented in DESIGN.md):
   - ordinary wrong-path fetch after a misprediction is a fetch bubble
     until the branch resolves (wrong-path µops are not executed);
   - inside dpred-mode the correct side follows the architectural trace
     (paper Section 4.4, assumption 2);
   - wrong-side loads are treated as L1 hits and do not pollute the
     cache;
   - the I-cache always hits (paper Section 4.4, assumption 1). *)

open Dmp_ir
open Dmp_exec
open Dmp_predictor
open Dmp_core
module Mpt = Dmp_mpp.Mpt

type walker = {
  mutable w_pc : int;
  mutable w_hist : int;
  mutable w_stack : int list;
  mutable w_count : int;
  mutable w_dead : bool;
}

type dpred = {
  d_branch_addr : int;
  d_done : int;  (* resolution cycle of the diverge branch *)
  d_mispredicted : bool;
  d_cfm : Annotation.compiled;  (* CFM points as flat sorted arrays *)
  d_return_cfm : bool;
  mutable d_correct_stop : int;  (* -1 active; -2 return; else CFM addr *)
  mutable d_wrong_stop : int;
  d_wrong : walker;
  mutable d_turn : bool;  (* true: correct side fetches this cycle *)
}

type loop_dpred = {
  l_branch_addr : int;
  l_exit_target : int;
  l_selects : int;
  l_body_insts : int;
  l_exit_taken : bool;  (* direction that leaves the loop *)
  mutable l_iterations : int;
}

type mode = M_normal | M_dpred of dpred | M_loop of loop_dpred

(* Misprediction recovery: until the branch resolves, the front end
   keeps fetching down the wrong path, polluting the reorder buffer;
   at resolution those entries are squashed from the tail. *)
type recovery = {
  r_done : int;
  r_walker : walker;
  mutable r_pushed : int;
}

type t = {
  config : Config.t;
  sinfo : Static_info.t;
  (* Dense per-address diverge-branch table (Annotation.compile). *)
  diverge_at : Annotation.compiled option array;
  (* Correct-path supply, indexed by [pos]. *)
  image : Image.t;
  predictor : Perceptron.t;
  conf : Conf.t;
  (* Dynamic merge-point predictor (Config.Dynamic provider only):
     trained on every consumed correct-path event, consulted by
     [branch_event] instead of [diverge_at]. *)
  mpt : Mpt.t option;
  hier : Cache.hierarchy;
  stats : Stats.t;
  (* Reorder buffer: completion cycles in fetch order. *)
  rob : int array;
  mutable rob_head : int;
  mutable rob_count : int;
  reg_ready : int array;
  mutable cycle : int;
  mutable fetch_resume : int;
  mutable select_pending : int;
  (* The image's current event has been loaded but not yet fetched. *)
  mutable pending : bool;
  mutable trace_done : bool;
  (* Index of the current (loaded) event; -1 initially. *)
  mutable pos : int;
  mutable mode : mode;
  mutable recovery : recovery option;
  max_insts : int;
  mutable consumed : int;
}

let create_image ?(config = Config.baseline) ?annotation
    ?(max_insts = max_int) linked image =
  let sinfo = Static_info.of_linked linked in
  (* One bounds check here licenses the unchecked static-info and
     diverge-table indexing in [fetch_image_cycle]. *)
  if Image.max_addr image >= Static_info.size sinfo then
    invalid_arg "Sim.create_image: image addresses exceed the linked program";
  let annotation =
    match annotation with Some a -> a | None -> Annotation.empty ()
  in
  {
    config;
    sinfo;
    diverge_at = Annotation.compile ~size:(Static_info.size sinfo) annotation;
    image;
    predictor = Perceptron.create ();
    conf =
      Conf.create ~log2_entries:config.Config.conf_log2_entries
        ~history_length:config.Config.conf_history_length
        ~threshold:config.Config.conf_threshold ();
    mpt =
      (match config.Config.merge_provider with
      | Config.Static -> None
      | Config.Dynamic mcfg -> Some (Mpt.create mcfg));
    hier = Cache.hierarchy config;
    stats = Stats.create ();
    rob = Array.make config.Config.rob_size 0;
    rob_head = 0;
    rob_count = 0;
    reg_ready = Array.make Reg.count 0;
    cycle = 0;
    fetch_resume = 0;
    select_pending = 0;
    pending = false;
    trace_done = false;
    pos = -1;
    mode = M_normal;
    recovery = None;
    max_insts;
    consumed = 0;
  }

(* ---------- correct-path supply ----------

   [peek]/[consume] load the image's next event by bumping [t.pos]; the
   event is read from the image buffers at [t.pos], which stay the
   current event from the [peek] that loaded it until the next [peek]
   after its [consume]. *)

let peek t (img : Image.t) =
  t.pending
  ||
  if t.trace_done then false
  else if t.consumed >= t.max_insts then begin
    t.trace_done <- true;
    false
  end
  else if t.pos + 1 < img.Image.len then begin
    t.pos <- t.pos + 1;
    t.pending <- true;
    true
  end
  else begin
    t.trace_done <- true;
    false
  end

let consume t img =
  peek t img
  && begin
       t.pending <- false;
       t.consumed <- t.consumed + 1;
       true
     end

(* ---------- reorder buffer ---------- *)

let rob_full t = t.rob_count >= Array.length t.rob

(* [rob_head + rob_count] never reaches twice the ROB size, so the
   wrap-around is a compare-and-subtract, not a division. *)
let rob_push t done_cycle =
  let len = Array.length t.rob in
  let i = t.rob_head + t.rob_count in
  let i = if i >= len then i - len else i in
  Array.unsafe_set t.rob i done_cycle;
  t.rob_count <- t.rob_count + 1

let retire t =
  let n = ref 0 in
  while
    !n < t.config.Config.retire_width
    && t.rob_count > 0
    && Array.unsafe_get t.rob t.rob_head <= t.cycle
  do
    let h = t.rob_head + 1 in
    t.rob_head <- (if h >= Array.length t.rob then 0 else h);
    t.rob_count <- t.rob_count - 1;
    incr n
  done

(* ---------- dataflow timing ---------- *)

(* [loc] is the memory location of the correct-path event; the fetch
   loop passes it only for loads and stores (the trace guarantees those
   events carry their location) and 0 for every other class, and only
   the load/store arms below read it. *)
let complete t ~(info : Static_info.info) ~loc =
  let disp = t.cycle + t.config.Config.front_depth in
  let srcs = info.Static_info.srcs in
  let ready = ref disp in
  for i = 0 to Array.length srcs - 1 do
    let v = Array.unsafe_get t.reg_ready (Array.unsafe_get srcs i) in
    if v > !ready then ready := v
  done;
  let latency =
    match info.Static_info.klass with
    | Static_info.K_load -> Cache.load_latency t.hier loc
    | Static_info.K_store ->
        Cache.store t.hier loc;
        t.config.Config.store_latency
    | k -> Static_info.latency t.config k
  in
  let done_cycle = !ready + latency in
  if info.Static_info.dst >= 0 then
    Array.unsafe_set t.reg_ready info.Static_info.dst done_cycle;
  done_cycle

let predicated_done t = t.cycle + t.config.Config.front_depth + 1

(* ---------- wrong-side walker ---------- *)

let make_walker ~start ~hist =
  { w_pc = start; w_hist = hist; w_stack = []; w_count = 0; w_dead = false }

(* Advance the walker by one instruction; returns true when an
   instruction was emitted (pushed into the ROB with completion time
   [done_cycle]), false when the walker died. The caller checks stop
   conditions (CFM, return) before calling. *)
let walker_step t (w : walker) ~done_cycle =
  if w.w_dead then false
  else begin
    let info = Static_info.get t.sinfo w.w_pc in
    rob_push t done_cycle;
    t.stats.Stats.wrong_side_insts <- t.stats.Stats.wrong_side_insts + 1;
    w.w_count <- w.w_count + 1;
    if w.w_count > t.config.Config.max_walk_insts then w.w_dead <- true
    else begin
      (match info.Static_info.klass with
      | Static_info.K_branch ->
          let taken =
            Perceptron.predict_with_history t.predictor ~history:w.w_hist
              ~addr:w.w_pc
          in
          w.w_hist <- Perceptron.shift t.predictor ~history:w.w_hist ~taken;
          w.w_pc <-
            (if taken then info.Static_info.taken_addr
             else info.Static_info.fall_addr)
      | Static_info.K_jump -> w.w_pc <- info.Static_info.taken_addr
      | Static_info.K_call ->
          w.w_stack <- info.Static_info.fall_addr :: w.w_stack;
          w.w_pc <- info.Static_info.taken_addr
      | Static_info.K_ret -> (
          match w.w_stack with
          | a :: rest ->
              w.w_stack <- rest;
              w.w_pc <- a
          | [] -> w.w_dead <- true)
      | Static_info.K_halt -> w.w_dead <- true
      | Static_info.K_int | Static_info.K_mul | Static_info.K_div
      | Static_info.K_load | Static_info.K_store | Static_info.K_other ->
          w.w_pc <- w.w_pc + 1)
    end;
    true
  end

(* ---------- branch bookkeeping ---------- *)

type branch_outcome = {
  b_mispredicted : bool;
  b_low_confidence : bool;
  b_done : int;
  b_pre_history : int;
}

let process_cond_branch t ~addr ~taken ~(info : Static_info.info) =
  let pre_history = Perceptron.history t.predictor in
  let predicted = Perceptron.resolve t.predictor ~addr ~taken in
  let est = Conf.estimate t.conf ~addr in
  let mispredicted = predicted <> taken in
  Conf.update t.conf ~addr ~taken ~mispredicted;
  t.stats.Stats.cond_branches <- t.stats.Stats.cond_branches + 1;
  if mispredicted then
    t.stats.Stats.mispredictions <- t.stats.Stats.mispredictions + 1;
  let low = Conf.is_low est in
  if low then begin
    t.stats.Stats.low_confidence <- t.stats.Stats.low_confidence + 1;
    if mispredicted then
      t.stats.Stats.low_confidence_mispredicted <-
        t.stats.Stats.low_confidence_mispredicted + 1
  end;
  let b_done = complete t ~info ~loc:0 in
  rob_push t b_done;
  { b_mispredicted = mispredicted; b_low_confidence = low; b_done;
    b_pre_history = pre_history }

let normal_flush ?wrong_path t ~done_cycle =
  t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
  t.fetch_resume <- max t.fetch_resume (done_cycle + 1);
  match wrong_path with
  | Some (start, hist) when done_cycle > t.cycle ->
      t.recovery <-
        Some
          {
            r_done = done_cycle;
            r_walker = make_walker ~start ~hist;
            r_pushed = 0;
          }
  | Some _ | None -> ()

(* ---------- dpred entry ---------- *)

let enter_hammock_dpred t ~addr ~taken (c : Annotation.compiled)
    (o : branch_outcome) =
  let info = Static_info.get t.sinfo addr in
  let wrong_start =
    if taken then info.Static_info.fall_addr else info.Static_info.taken_addr
  in
  let wrong_hist =
    Perceptron.shift t.predictor ~history:o.b_pre_history
      ~taken:(not taken)
  in
  t.stats.Stats.dpred_entries <- t.stats.Stats.dpred_entries + 1;
  t.stats.Stats.dpred_hammock_entries <-
    t.stats.Stats.dpred_hammock_entries + 1;
  if not o.b_mispredicted then
    t.stats.Stats.dpred_useless_entries <-
      t.stats.Stats.dpred_useless_entries + 1;
  t.mode <-
    M_dpred
      {
        d_branch_addr = addr;
        d_done = o.b_done;
        d_mispredicted = o.b_mispredicted;
        d_cfm = c;
        d_return_cfm = c.Annotation.c_diverge.Annotation.return_cfm;
        d_correct_stop = -1;
        d_wrong_stop = -1;
        d_wrong = make_walker ~start:wrong_start ~hist:wrong_hist;
        d_turn = true;
      }

(* Predict the number of phantom extra iterations the predictor would
   fetch after the actual loop exit: follows the speculative history
   until the loop branch is predicted in the exit direction. *)
let phantom_extra_iterations t ~addr ~pre_history ~exit_taken ~cap =
  let rec go hist n =
    if n >= cap then n
    else
      let p = Perceptron.predict_with_history t.predictor ~history:hist ~addr in
      if p = exit_taken then n
      else
        let hist' = Perceptron.shift t.predictor ~history:hist ~taken:p in
        go hist' (n + 1)
  in
  go
    (Perceptron.shift t.predictor ~history:pre_history
       ~taken:(not exit_taken))
    0

(* Handle one execution of a diverge loop branch while in (or entering)
   loop dpred-mode. Returns [`Stay] to remain in loop mode. *)
let loop_branch_event t (l : loop_dpred) ~addr ~taken (o : branch_outcome) =
  let actual_exits = taken = l.l_exit_taken in
  let predicted_taken = taken <> o.b_mispredicted in
  let predicted_exits = predicted_taken = l.l_exit_taken in
  (* Select-µops are inserted after every dynamically-predicated
     iteration (Equation 18). *)
  t.select_pending <- t.select_pending + l.l_selects;
  l.l_iterations <- l.l_iterations + 1;
  match (actual_exits, predicted_exits) with
  | false, false -> `Stay
  | false, true ->
      (* Early exit: the predicated loop stopped too soon; pipeline is
         flushed when the branch resolves. *)
      t.stats.Stats.loop_early_exits <- t.stats.Stats.loop_early_exits + 1;
      normal_flush t ~done_cycle:o.b_done;
      `Exit
  | true, true ->
      t.stats.Stats.loop_correct <- t.stats.Stats.loop_correct + 1;
      `Exit
  | true, false ->
      (* The predictor would keep iterating: late exit if it predicts
         the exit within the resolution window, no-exit otherwise. *)
      let cap = t.config.Config.max_loop_extra_iterations in
      let extra =
        phantom_extra_iterations t ~addr ~pre_history:o.b_pre_history
          ~exit_taken:l.l_exit_taken ~cap
      in
      let per_iter_cycles =
        (l.l_body_insts + l.l_selects + t.config.Config.fetch_width - 1)
        / t.config.Config.fetch_width
      in
      let fetch_after = t.cycle + (extra * per_iter_cycles) in
      if extra < cap && fetch_after < o.b_done then begin
        t.stats.Stats.loop_late_exits <- t.stats.Stats.loop_late_exits + 1;
        t.stats.Stats.loop_extra_insts <-
          t.stats.Stats.loop_extra_insts + (extra * l.l_body_insts);
        t.stats.Stats.dpred_flushes_avoided <-
          t.stats.Stats.dpred_flushes_avoided + 1;
        t.fetch_resume <- max t.fetch_resume fetch_after
      end
      else begin
        t.stats.Stats.loop_no_exits <- t.stats.Stats.loop_no_exits + 1;
        normal_flush t ~done_cycle:o.b_done
      end;
      `Exit

let enter_loop_dpred t ~addr ~taken (c : Annotation.compiled)
    (o : branch_outcome) =
  match c.Annotation.c_diverge.Annotation.loop with
  | None -> false
  | Some li ->
      let info = Static_info.get t.sinfo addr in
      let exit_taken =
        info.Static_info.taken_addr = li.Annotation.exit_target_addr
      in
      let l =
        {
          l_branch_addr = addr;
          l_exit_target = li.Annotation.exit_target_addr;
          l_selects = li.Annotation.loop_select_uops;
          l_body_insts = li.Annotation.body_insts;
          l_exit_taken = exit_taken;
          l_iterations = 0;
        }
      in
      t.stats.Stats.dpred_entries <- t.stats.Stats.dpred_entries + 1;
      t.stats.Stats.dpred_loop_entries <-
        t.stats.Stats.dpred_loop_entries + 1;
      (match loop_branch_event t l ~addr ~taken o with
      | `Stay -> t.mode <- M_loop l
      | `Exit -> ());
      true

(* A predicted merge point, packaged as a single-CFM compiled diverge
   so the dpred state machine runs unchanged. The predictor has no
   dataflow view: the select-µop cost is its configured constant. *)
let enter_predicted_dpred t ~addr ~taken ~merge (g : Mpt.config)
    (o : branch_outcome) =
  let c =
    {
      Annotation.c_diverge =
        {
          Annotation.branch_addr = addr;
          kind = Annotation.Simple_hammock;
          cfms = [];
          return_cfm = false;
          always_predicate = false;
          loop = None;
        };
      c_cfm_addrs = [| merge |];
      c_cfm_selects = [| g.Mpt.select_uops |];
      c_ret_selects = g.Mpt.select_uops;
    }
  in
  enter_hammock_dpred t ~addr ~taken c o

(* ---------- per-cycle fetch ---------- *)

exception Stop_fetch

(* Handle a just-fetched correct-path conditional branch:
   diverge-branch decisions, inner-misprediction aborts, and the
   ordinary misprediction flush. Raises [Stop_fetch] when the fetch
   cycle must end. [target]/[fall] are the branch's architectural
   operands. *)
let[@inline] branch_event t ~(in_dpred : dpred option) ~addr ~taken ~target
    ~fall ~branches (o : branch_outcome) =
  (* Diverge-branch decisions only apply outside dpred-mode (DMP
     predicates one branch at a time). *)
  let handled =
    match (in_dpred, t.mode) with
    | None, M_normal when t.config.Config.dmp_enabled && t.mpt <> None -> (
        (* Dynamic provider: the Merge Point Table answers (or not) for
           every low-confidence conditional branch; the static table is
           not consulted. No loop mechanism — the MPT has no iteration
           counts, so loop branches predicate as hammocks when their
           learned merge point sticks. *)
        match t.mpt with
        | Some m when o.b_low_confidence -> (
            t.stats.Stats.mpp_lookups <- t.stats.Stats.mpp_lookups + 1;
            match Mpt.predict m ~addr with
            | Some merge ->
                t.stats.Stats.mpp_predicted <-
                  t.stats.Stats.mpp_predicted + 1;
                if t.stats.Stats.mpp_warmup_retired = 0 then
                  t.stats.Stats.mpp_warmup_retired <- t.consumed;
                enter_predicted_dpred t ~addr ~taken ~merge (Mpt.config m) o;
                true
            | None -> false)
        | Some _ | None -> false)
    | None, M_normal when t.config.Config.dmp_enabled -> (
        match Array.unsafe_get t.diverge_at addr with
        | Some c -> (
            match c.Annotation.c_diverge.Annotation.kind with
            | Annotation.Loop_branch ->
                if o.b_low_confidence then enter_loop_dpred t ~addr ~taken c o
                else false
            | Annotation.Simple_hammock | Annotation.Nested_hammock
            | Annotation.Frequently_hammock ->
                if o.b_low_confidence
                   || c.Annotation.c_diverge.Annotation.always_predicate
                then begin
                  enter_hammock_dpred t ~addr ~taken c o;
                  true
                end
                else false)
        | None -> false)
    | None, M_loop l -> (
        if addr = l.l_branch_addr then begin
          match loop_branch_event t l ~addr ~taken o with
          | `Stay -> true
          | `Exit ->
              t.mode <- M_normal;
              true
        end
        else false)
    | _, _ -> false
  in
  if handled then raise Stop_fetch;
  if o.b_mispredicted then begin
    (* Inside dpred-mode an inner misprediction also flushes and aborts
       predication. *)
    (match (in_dpred, t.mode) with
    | Some _, _ -> t.mode <- M_normal
    | None, M_loop _ -> t.mode <- M_normal
    | None, (M_normal | M_dpred _) -> ());
    let start = if taken then fall else target in
    let hist =
      Perceptron.shift t.predictor ~history:o.b_pre_history
        ~taken:(not taken)
    in
    normal_flush ~wrong_path:(start, hist) t ~done_cycle:o.b_done;
    raise Stop_fetch
  end;
  if branches >= t.config.Config.max_branches_per_cycle then raise Stop_fetch;
  if taken then raise Stop_fetch

(* Fetch correct-path instructions for one cycle from the image.
   [in_dpred] carries the dpred state when the correct side is one of
   the two predicated paths. Per-event fields are single array reads at
   [t.pos], and the static-info lookup indexes the dense table
   unchecked — [create_image] validated every image address against
   the table size. Returns unit; updates all machine state. *)
let fetch_image_cycle t ~(in_dpred : dpred option) =
  let img = t.image in
  let addrs = img.Image.addr
  and nexts = img.Image.next
  and tags = img.Image.tag
  and p1s = img.Image.p1
  and p2s = img.Image.p2
  and infos = Static_info.table t.sinfo in
  let slots = ref t.config.Config.fetch_width in
  let branches = ref 0 in
  (try
     while !slots > 0 do
       if t.select_pending > 0 then begin
         if rob_full t then raise Stop_fetch;
         rob_push t (t.cycle + t.config.Config.front_depth
                     + t.config.Config.select_uop_latency);
         t.select_pending <- t.select_pending - 1;
         t.stats.Stats.select_uops <- t.stats.Stats.select_uops + 1;
         decr slots
       end
       else if rob_full t then raise Stop_fetch
       else begin
         (match in_dpred with
         | Some d when peek t img ->
             (* Stop the correct side at a CFM point before fetching it. *)
             let next_fetch =
               Int32.to_int (Bigarray.Array1.unsafe_get addrs t.pos)
             in
             if Annotation.is_cfm d.d_cfm next_fetch then begin
               d.d_correct_stop <- next_fetch;
               raise Stop_fetch
             end
         | Some _ | None -> ());
         if not (consume t img) then raise Stop_fetch
         else begin
           let pos = t.pos in
           let addr = Int32.to_int (Bigarray.Array1.unsafe_get addrs pos) in
           let next = Int32.to_int (Bigarray.Array1.unsafe_get nexts pos) in
           (* Loop dpred-mode ends when the trace reaches the loop's
              exit target through any path. *)
           (match t.mode with
           | M_loop l when addr = l.l_exit_target -> t.mode <- M_normal
           | M_loop _ | M_normal | M_dpred _ -> ());
           let info = Array.unsafe_get infos addr in
           (* Train the dynamic merge-point predictor on the consumed
              (architectural) stream; conditional branches train inside
              their arm, where the direction is known. *)
           (match t.mpt with
           | Some m -> (
               match info.Static_info.klass with
               | Static_info.K_branch -> ()
               | Static_info.K_call -> Mpt.observe_call m ~addr
               | Static_info.K_ret -> Mpt.observe_ret m
               | _ -> Mpt.observe m ~addr)
           | None -> ());
           match info.Static_info.klass with
           | Static_info.K_branch ->
               incr branches;
               let taken =
                 Bigarray.Array1.unsafe_get tags pos = Event.tag_branch_taken
               in
               let target = Bigarray.Array1.unsafe_get p1s pos in
               let fall = Int32.to_int (Bigarray.Array1.unsafe_get p2s pos) in
               (match t.mpt with
               | Some m -> Mpt.observe_branch m ~addr ~taken
               | None -> ());
               let o = process_cond_branch t ~addr ~taken ~info in
               decr slots;
               branch_event t ~in_dpred ~addr ~taken ~target ~fall
                 ~branches:!branches o
           | Static_info.K_ret ->
               let d = complete t ~info ~loc:0 in
               rob_push t d;
               decr slots;
               (match in_dpred with
               | Some dp when dp.d_return_cfm ->
                   dp.d_correct_stop <- -2;
                   raise Stop_fetch
               | _ -> ());
               if next <> addr + 1 then raise Stop_fetch
           | Static_info.K_load | Static_info.K_store ->
               (* Memory events always carry their location. *)
               let d =
                 complete t ~info ~loc:(Bigarray.Array1.unsafe_get p1s pos)
               in
               rob_push t d;
               decr slots;
               if next <> addr + 1 && next <> Event.halted_next then
                 raise Stop_fetch
           | _ ->
               let d = complete t ~info ~loc:0 in
               rob_push t d;
               decr slots;
               (* Taken control transfers end the fetch cycle, except
                  fall-through jumps to the next address. *)
               if next <> addr + 1 && next <> Event.halted_next then
                 raise Stop_fetch
         end
       end
     done
   with Stop_fetch -> ())

(* Fetch wrong-side (walker) instructions for one cycle during
   dpred-mode. *)
let fetch_walker_cycle t (d : dpred) =
  let w = d.d_wrong in
  let slots = ref t.config.Config.fetch_width in
  (try
     while !slots > 0 do
       if w.w_dead then raise Stop_fetch;
       if rob_full t then raise Stop_fetch;
       if Annotation.is_cfm d.d_cfm w.w_pc then begin
         d.d_wrong_stop <- w.w_pc;
         raise Stop_fetch
       end;
       let info = Static_info.get t.sinfo w.w_pc in
       let was_ret = info.Static_info.klass = Static_info.K_ret in
       if not (walker_step t w ~done_cycle:(predicated_done t)) then
         raise Stop_fetch;
       decr slots;
       if was_ret && d.d_return_cfm then begin
         d.d_wrong_stop <- -2;
         raise Stop_fetch
       end
     done
   with Stop_fetch -> ())

(* ---------- dpred-mode per-cycle driver ---------- *)

let exit_dpred t (d : dpred) ~merged =
  if merged then begin
    t.stats.Stats.dpred_merges <- t.stats.Stats.dpred_merges + 1;
    let selects =
      if d.d_correct_stop = -2 then d.d_cfm.Annotation.c_ret_selects
      else Annotation.cfm_selects d.d_cfm d.d_correct_stop
    in
    t.select_pending <- t.select_pending + selects
  end
  else
    t.stats.Stats.dpred_resolved_before_merge <-
      t.stats.Stats.dpred_resolved_before_merge + 1;
  if d.d_mispredicted then
    t.stats.Stats.dpred_flushes_avoided <-
      t.stats.Stats.dpred_flushes_avoided + 1;
  t.mode <- M_normal

let dpred_cycle t (d : dpred) =
  (* Merge: both sides stopped at the same CFM point (or both at a
     return when the branch has a return CFM). *)
  if d.d_correct_stop <> -1 && d.d_correct_stop = d.d_wrong_stop then
    exit_dpred t d ~merged:true
  else if t.cycle >= d.d_done then
    (* The diverge branch resolved: predicated-FALSE instructions become
       NOPs; fetch continues on the correct path with no flush. *)
    exit_dpred t d ~merged:false
  else begin
    let correct_active = d.d_correct_stop = -1 && not t.trace_done in
    let wrong_active = d.d_wrong_stop = -1 && not d.d_wrong.w_dead in
    let pick_correct =
      match (correct_active, wrong_active) with
      | true, false -> true
      | false, true -> false
      | _, _ -> d.d_turn
    in
    d.d_turn <- not d.d_turn;
    if correct_active || wrong_active then
      if pick_correct && correct_active then
        fetch_image_cycle t ~in_dpred:(Some d)
      else if wrong_active then fetch_walker_cycle t d
  end

(* ---------- main loop ---------- *)

let finished t = t.trace_done && t.rob_count = 0 && not t.pending

(* Wrong-path fetch between a misprediction and its resolution: pollute
   the ROB with entries that never complete; squash them from the tail
   at resolution. *)
let recovery_cycle t (r : recovery) =
  if t.cycle >= r.r_done then begin
    t.rob_count <- t.rob_count - r.r_pushed;
    t.recovery <- None
  end
  else begin
    let budget = ref t.config.Config.fetch_width in
    while
      !budget > 0 && (not r.r_walker.w_dead) && not (rob_full t)
    do
      if walker_step t r.r_walker ~done_cycle:max_int then
        r.r_pushed <- r.r_pushed + 1
      else budget := 0;
      decr budget
    done
  end

let max_sim_cycles = 400_000_000

let step_cycle t =
  t.cycle <- t.cycle + 1;
  retire t;
  if rob_full t then
    t.stats.Stats.rob_full_cycles <- t.stats.Stats.rob_full_cycles + 1;
  (match t.mode with
  | M_dpred _ ->
      t.stats.Stats.dpred_cycles <- t.stats.Stats.dpred_cycles + 1
  | M_normal | M_loop _ -> ());
  match t.recovery with
  | Some r ->
      t.stats.Stats.recovery_cycles <- t.stats.Stats.recovery_cycles + 1;
      recovery_cycle t r
  | None ->
      if t.cycle >= t.fetch_resume then begin
        match t.mode with
        | M_normal | M_loop _ ->
            if not t.trace_done then fetch_image_cycle t ~in_dpred:None
        | M_dpred d -> dpred_cycle t d
      end

let finalize t =
  t.stats.Stats.cycles <- t.cycle;
  t.stats.Stats.retired <- t.consumed;
  t.stats

let run_to_completion t =
  let guard = ref 0 in
  while (not (finished t)) && !guard < max_sim_cycles do
    incr guard;
    step_cycle t
  done;
  finalize t

let run_image ?config ?annotation ?max_insts linked image =
  let t = create_image ?config ?annotation ?max_insts linked image in
  run_to_completion t

let run ?config ?annotation ?max_insts linked ~input =
  run_image ?config ?annotation ?max_insts linked
    (Image.of_trace (Trace.capture ?max_insts linked ~input))

let stats t = t.stats

let merge_predictions t =
  match t.mpt with Some m -> Mpt.predictions m | None -> []

(* ---------- checkpoints ----------

   A checkpoint captures the full machine state at a safe point: normal
   mode, no recovery walker, between cycles. Dpred episodes, loop
   predication and misprediction recovery are all bounded, so a safe
   cycle boundary recurs; restricting capture to those points keeps the
   episode state machines (walkers, dpred context) out of the snapshot
   entirely. [pos] makes the trace position restorable.

   Layout: "core" holds the scalar machine state plus three shape
   fingerprints (image length, ROB size, register count) validated on
   resume; "rob" holds the live completion cycles in retire order (the
   head index is not state — rebuilding at index 0 is equivalent);
   "reg"/"stats"/"pred"/"conf"/"l1"/"l2" are the flat snapshots of the
   respective subsystems. Note [Stats.cycles]/[Stats.retired] are dead
   in the snapshot: they are derived from [t.cycle]/[t.consumed] by
   [finalize] at the end of any run. *)

let at_safe_point t =
  (match t.mode with M_normal -> true | M_dpred _ | M_loop _ -> false)
  && match t.recovery with None -> true | Some _ -> false

let checkpoint t =
  if not (at_safe_point t) then
    invalid_arg "Sim.checkpoint: not at a safe point (episode in progress)";
  let core =
    [|
      t.cycle; t.fetch_resume; t.select_pending;
      (if t.pending then 1 else 0);
      (if t.trace_done then 1 else 0);
      t.pos; Image.length t.image; Array.length t.rob;
      Array.length t.reg_ready;
    |]
  in
  let len = Array.length t.rob in
  let rob =
    Array.init t.rob_count (fun i ->
        let j = t.rob_head + i in
        t.rob.(if j >= len then j - len else j))
  in
  Checkpoint.create ~consumed:t.consumed
    ([
       ("core", core);
       ("rob", rob);
       ("reg", Array.copy t.reg_ready);
       ("stats", Stats.to_array t.stats);
       ("pred", Perceptron.export t.predictor);
       ("conf", Conf.export t.conf);
       ("l1", Cache.export t.hier.Cache.l1);
       ("l2", Cache.export t.hier.Cache.l2);
     ]
    @
    (* The merge-point predictor is trained by the consumed stream, so
       its table belongs with the architectural prefix state. *)
    match t.mpt with
    | Some m -> [ ("mpt", Mpt.export m) ]
    | None -> [])

(* Restore the trace position and the architectural long-lived state
   (predictor, confidence estimator, caches) — everything in a
   checkpoint that is a pure function of the consumed event prefix.
   Shared by the exact resume (which also restores the timing state)
   and the sampled mode (which deliberately does not). *)
let restore_arch t ck =
  let core = Checkpoint.section ck "core" in
  if Array.length core <> 9 then
    invalid_arg "Sim.resume: bad core section";
  if core.(6) <> Image.length t.image then
    invalid_arg "Sim.resume: checkpoint is for a different image";
  if core.(7) <> Array.length t.rob || core.(8) <> Array.length t.reg_ready
  then invalid_arg "Sim.resume: checkpoint is for a different configuration";
  (* The fetch loop reads the image at [pos] unchecked once an event is
     pending, so the position must be one [peek]/[consume] can reach. *)
  let pending = core.(3) and trace_done = core.(4) and pos = core.(5) in
  if pos < -1 || pos >= Image.length t.image then
    invalid_arg "Sim.resume: trace position out of range";
  if (pending <> 0 && pending <> 1) || (trace_done <> 0 && trace_done <> 1)
  then invalid_arg "Sim.resume: bad core flags";
  if Checkpoint.consumed ck <> pos + 1 - pending then
    invalid_arg "Sim.resume: consumed count disagrees with trace position";
  t.pending <- pending = 1;
  t.trace_done <- trace_done = 1;
  t.pos <- pos;
  t.consumed <- Checkpoint.consumed ck;
  Perceptron.import t.predictor (Checkpoint.section ck "pred");
  Conf.import t.conf (Checkpoint.section ck "conf");
  Cache.import t.hier.Cache.l1 (Checkpoint.section ck "l1");
  Cache.import t.hier.Cache.l2 (Checkpoint.section ck "l2");
  (* A checkpoint captured under the static provider (the sampled
     mode's shared annotation-independent references) has no "mpt"
     section: a dynamic-provider restore then starts its predictor
     cold, which is deterministic and part of the sampling estimate. *)
  (match t.mpt with
  | Some m -> (
      match Checkpoint.section_opt ck "mpt" with
      | Some snap -> Mpt.import m snap
      | None -> ())
  | None -> ());
  core

let resume_image ?config ?annotation ?max_insts linked image ck =
  let t = create_image ?config ?annotation ?max_insts linked image in
  (* An exact resume must reproduce the capturing run byte-identically,
     so a dynamic-provider run cannot silently start its predictor
     cold from a static-provider checkpoint. *)
  (match t.mpt with
  | Some _ when Checkpoint.section_opt ck "mpt" = None ->
      invalid_arg
        "Sim.resume_image: checkpoint lacks merge-point predictor state"
  | Some _ | None -> ());
  let core = restore_arch t ck in
  t.cycle <- core.(0);
  t.fetch_resume <- core.(1);
  t.select_pending <- core.(2);
  let rob = Checkpoint.section ck "rob" in
  if Array.length rob > Array.length t.rob then
    invalid_arg "Sim.resume_image: bad rob section";
  Array.blit rob 0 t.rob 0 (Array.length rob);
  t.rob_head <- 0;
  t.rob_count <- Array.length rob;
  let reg = Checkpoint.section ck "reg" in
  if Array.length reg <> Array.length t.reg_ready then
    invalid_arg "Sim.resume_image: bad reg section";
  Array.blit reg 0 t.reg_ready 0 (Array.length reg);
  Stats.load t.stats (Checkpoint.section ck "stats");
  t

(* Capture rule shared by the checkpointing run and the segment stop
   rule (they must trigger at exactly the same machine states): the
   first safe cycle boundary at or after a multiple of [interval]
   consumed events, while the trace is still live. *)
let next_boundary ~interval consumed = ((consumed / interval) + 1) * interval

let at_capture_point t ~next =
  (not t.trace_done) && t.consumed >= next && at_safe_point t

let run_image_checkpointed ?config ?annotation ?max_insts ~interval linked
    image =
  if interval <= 0 then
    invalid_arg "Sim.run_image_checkpointed: interval must be positive";
  let t = create_image ?config ?annotation ?max_insts linked image in
  let ckpts = ref [] in
  let next = ref interval in
  let guard = ref 0 in
  while (not (finished t)) && !guard < max_sim_cycles do
    incr guard;
    step_cycle t;
    if at_capture_point t ~next:!next then begin
      ckpts := checkpoint t :: !ckpts;
      next := next_boundary ~interval t.consumed
    end
  done;
  (finalize t, List.rev !ckpts)

(* Per-segment counter deltas: [base] snapshots the cumulative counters
   at segment entry (with the derived cycles/retired patched to their
   entry values), the diff after the run is the segment's contribution.
   Merging every segment's delta telescopes back to the whole-run
   statistics exactly. *)
let delta_base t =
  let base = Stats.copy t.stats in
  base.Stats.cycles <- t.cycle;
  base.Stats.retired <- t.consumed;
  base

let run_image_segment ?config ?annotation ?max_insts ?from ~interval
    ~to_completion linked image =
  if interval <= 0 then
    invalid_arg "Sim.run_image_segment: interval must be positive";
  let t =
    match from with
    | None -> create_image ?config ?annotation ?max_insts linked image
    | Some ck -> resume_image ?config ?annotation ?max_insts linked image ck
  in
  let base = delta_base t in
  if to_completion then ignore (run_to_completion t : Stats.t)
  else begin
    let next = next_boundary ~interval t.consumed in
    let guard = ref 0 in
    let stop = ref false in
    while (not !stop) && (not (finished t)) && !guard < max_sim_cycles do
      incr guard;
      step_cycle t;
      if at_capture_point t ~next then stop := true
    done;
    ignore (finalize t : Stats.t)
  end;
  Stats.diff t.stats base

(* Run (at most) until [target] consumed events, without marking the
   trace done: unlike the [max_insts] cap this can be resumed, so the
   sampled mode strings warmup and measurement phases together. When
   the trace genuinely ends first, the loop drains the ROB ([finished]
   flips only once it is empty). *)
let run_until_consumed t target =
  let guard = ref 0 in
  while
    (not (finished t)) && t.consumed < target && !guard < max_sim_cycles
  do
    incr guard;
    step_cycle t
  done;
  (* When the trace genuinely ended inside the window, drain the ROB so
     the tail cycles are accounted exactly as a run to completion. *)
  if t.trace_done then
    while (not (finished t)) && !guard < max_sim_cycles do
      incr guard;
      step_cycle t
    done

let run_image_sampled ?config ?annotation ?max_insts ?from ~length ~warmup
    ~window linked image =
  if length < 0 then invalid_arg "Sim.run_image_sampled: negative length";
  if warmup < 0 || window <= 0 then
    invalid_arg "Sim.run_image_sampled: bad warmup/window";
  let t = create_image ?config ?annotation ?max_insts linked image in
  (* Architectural state (trace position, predictor, confidence, cache)
     is exact from the checkpoint; the timing state (pipeline, ROB,
     register timestamps, cycle counter) deliberately starts cold and
     is warmed by the prefix. *)
  (match from with
  | Some ck -> ignore (restore_arch t ck : int array)
  | None -> ());
  let start = t.consumed in
  if length <= warmup + window then begin
    (* Segment no larger than one measurement: simulate all of it. *)
    run_until_consumed t (start + length);
    t.stats.Stats.cycles <- t.cycle;
    t.stats.Stats.retired <- t.consumed - start;
    t.stats
  end
  else begin
    run_until_consumed t (start + warmup);
    let base = delta_base t in
    run_until_consumed t (start + warmup + window);
    ignore (finalize t : Stats.t);
    let d = Stats.diff t.stats base in
    let measured = d.Stats.retired in
    if measured <= 0 then begin
      (* The trace ended inside the warmup (a capped run): fall back to
         what was actually simulated. *)
      t.stats.Stats.cycles <- t.cycle;
      t.stats.Stats.retired <- t.consumed - start;
      t.stats
    end
    else
      Stats.scale_round (float_of_int length /. float_of_int measured) d
  end
