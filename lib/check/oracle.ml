open Dmp_ir
open Dmp_exec
open Dmp_uarch
module D = Diagnostic

let stats_mismatches a b =
  List.filter_map
    (fun ((fa, va), (fb, vb)) ->
      assert (fa = fb);
      if va <> vb then Some (fa, va, vb) else None)
    (List.combine (Stats.fields a) (Stats.fields b))

let pp_event = Fmt.to_to_string Event.pp

exception Diverged

let check_streams ?max_insts linked ~input trace image =
  let out = ref [] in
  let err ?addr rule msg = out := D.error ?addr ~rule msg :: !out in
  let n = Trace.length trace in
  if Image.length image <> n then
    err "oracle-image-length"
      (Printf.sprintf "image has %d events, trace %d" (Image.length image) n);
  let emu = Emulator.create linked ~input in
  let cap = match max_insts with Some m -> min m n | None -> n in
  let i = ref 0 in
  let diverged =
    match
      Trace.iter ~max_insts:cap trace (fun et ->
          (match Emulator.step emu with
          | None ->
              err "oracle-stream-length"
                (Printf.sprintf
                   "at event %d: live stream ends, trace replay continues \
                    (trace length %d)"
                   !i n);
              raise Diverged
          | Some el ->
              if el <> et then begin
                err ~addr:et.Event.addr "oracle-trace-divergence"
                  (Printf.sprintf "first diverging event %d: live %s, replay %s"
                     !i (pp_event el) (pp_event et));
                raise Diverged
              end);
          (if !i < Image.length image then
             let ei = Image.event image !i in
             if et <> ei then begin
               err ~addr:et.Event.addr "oracle-image-divergence"
                 (Printf.sprintf
                    "first diverging event %d: replay %s, image %s" !i
                    (pp_event et) (pp_event ei));
               raise Diverged
             end);
          incr i)
    with
    | () -> false
    | exception Diverged -> true
  in
  (* A complete trace must end exactly where the program halts. *)
  if (not diverged) && cap = n && Trace.complete trace
     && max_insts = None && Emulator.advance emu
  then
    err "oracle-stream-length"
      (Printf.sprintf
         "live stream continues past the %d events of a complete trace" n);
  List.rev !out

let diff_stats ~label ~left ~right a b =
  match stats_mismatches a b with
  | [] -> []
  | ms ->
      let fields =
        String.concat ", "
          (List.map
             (fun (f, va, vb) -> Printf.sprintf "%s %d/%d" f va vb)
             ms)
      in
      [
        D.errorf ~rule:"oracle-checkpoint"
          "%s: %s and %s statistics disagree on %d field(s): %s" label left
          right (List.length ms) fields;
      ]

(* ---- checkpoints ---- *)

(* Cross-check the checkpointed execution machinery against the plain
   image simulation: the capturing run itself, a resume +
   run-to-completion from every captured checkpoint, and the merge of
   the per-segment deltas must all reproduce the plain run's
   statistics field-for-field. *)
let check_checkpoints ?max_insts ~label config annotation linked image =
  let full = Sim.run_image ~config ?annotation ?max_insts linked image in
  let interval = max 1 (Image.length image / 4) in
  let ck_stats, ckpts =
    Sim.run_image_checkpointed ~config ?annotation ?max_insts ~interval
      linked image
  in
  let capture =
    diff_stats ~label ~left:"image" ~right:"checkpointing-run" full
      ck_stats
  in
  let resumes =
    List.concat_map
      (fun ck ->
        let t =
          Sim.resume_image ~config ?annotation ?max_insts linked image ck
        in
        diff_stats ~label ~left:"image"
          ~right:(Printf.sprintf "resume@%d" (Checkpoint.consumed ck))
          full (Sim.run_to_completion t))
      ckpts
  in
  let rec deltas from = function
    | [] ->
        [
          Sim.run_image_segment ~config ?annotation ?max_insts ?from
            ~interval ~to_completion:true linked image;
        ]
    | ck :: tl ->
        Sim.run_image_segment ~config ?annotation ?max_insts ?from ~interval
          ~to_completion:false linked image
        :: deltas (Some ck) tl
  in
  let merged =
    List.fold_left Stats.merge (Stats.create ()) (deltas None ckpts)
  in
  capture @ resumes
  @ diff_stats ~label ~left:"image" ~right:"segment-merge" full merged

(* ---- profiles ---- *)

let profile_bytes p =
  Marshal.to_string (Dmp_profile.Profile.to_raw p) []

let profile_divergence ~left ~right linked a b =
  let module P = Dmp_profile.Profile in
  if String.equal (profile_bytes a) (profile_bytes b) then []
  else
    (* Serialised counters differ; pinpoint the first counter. *)
    let pin = ref [] in
    let err ?addr msg = pin := D.error ?addr ~rule:"oracle-profile" msg :: !pin in
    if P.retired a <> P.retired b then
      err
        (Printf.sprintf "%s retired %d, %s retired %d" left (P.retired a)
           right (P.retired b));
    let addrs =
      List.sort_uniq Int.compare (P.branch_addrs a @ P.branch_addrs b)
    in
    List.iter
      (fun addr ->
        match (P.branch a ~addr, P.branch b ~addr) with
        | None, None -> ()
        | Some _, None | None, Some _ ->
            err ~addr
              (Printf.sprintf "branch %d profiled by %s only" addr
                 (match P.branch a ~addr with Some _ -> left | None -> right))
        | Some ba, Some bb ->
            if
              ba.P.executed <> bb.P.executed
              || ba.P.taken <> bb.P.taken
              || ba.P.mispredicted <> bb.P.mispredicted
            then
              err ~addr
                (Printf.sprintf
                   "branch %d: %s exec/taken/misp %d/%d/%d, %s %d/%d/%d"
                   addr left ba.P.executed ba.P.taken ba.P.mispredicted
                   right bb.P.executed bb.P.taken bb.P.mispredicted))
      addrs;
    let program = linked.Linked.program in
    for func = 0 to Program.num_funcs program - 1 do
      let f = Program.func program func in
      for block = 0 to Func.num_blocks f - 1 do
        let ca = P.block_count a ~func ~block in
        let cb = P.block_count b ~func ~block in
        if ca <> cb then
          err
            ~addr:(Linked.block_addr linked ~func ~block)
            (Printf.sprintf "block %d.%d counted %d by %s, %d by %s" func
               block ca left cb right)
      done
    done;
    match List.rev !pin with
    | [] ->
        [
          D.errorf ~rule:"oracle-profile"
            "%s and %s profiles serialise differently but no counter \
             disagrees"
            left right;
        ]
    | first :: _ -> [ first ]

let check_profiles ?max_insts linked ~input trace =
  let module P = Dmp_profile.Profile in
  let p_live = P.collect ?max_insts linked ~input in
  let p_trace = P.collect_trace ?max_insts linked trace in
  let config = { Dmp_sampling.Sampler.mode = Periodic; period = 1; seed = 0 } in
  let sampler =
    Dmp_sampling.Sampler.collect_trace ?max_insts ~config linked trace
  in
  let coverage =
    if Dmp_sampling.Sampler.complete_coverage sampler then []
    else
      [
        D.error ~rule:"oracle-sampler-coverage"
          "period-1 periodic sampler reports incomplete coverage";
      ]
  in
  let p_rec = Dmp_sampling.Reconstruct.profile linked sampler in
  let flow =
    match Dmp_sampling.Reconstruct.flow_violations linked sampler with
    | [] -> []
    | (func, block, inflow, outflow) :: _ as vs ->
        [
          D.errorf ~func ~block ~rule:"oracle-flow"
            "%d flow-conservation violation(s); first at block %d.%d \
             (inflow %d, outflow %d)"
            (List.length vs) func block inflow outflow;
        ]
  in
  profile_divergence ~left:"live" ~right:"replay" linked p_live p_trace
  @ profile_divergence ~left:"exact" ~right:"period-1-sampled" linked
      p_trace p_rec
  @ coverage @ flow

(* ---- transform equivalence ---- *)

(* A software-predicated program retires a different instruction
   stream, so unlike the stream checks above there is no lockstep
   event diff: equivalence is architectural. Both programs replay the
   same input; the output stream, the retired-store sequence (location
   and stored value, in retirement order) and — when both runs halt —
   the final register file (minus the transform's scratch registers)
   and the final memory image must agree, with the first divergence
   pinpointed. Under a [max_insts] cap that cuts either run short,
   only the common prefix of outputs and stores is compared: the two
   programs make different per-instruction progress, so final-state
   comparison is only meaningful at a real halt. *)

let rec first_diff i a b =
  match (a, b) with
  | [], [] -> None
  | x :: a', y :: b' -> if x = y then first_diff (i + 1) a' b' else Some i
  | _ :: _, [] | [], _ :: _ -> Some i

let rec truncate n = function
  | x :: tl when n > 0 -> x :: truncate (n - 1) tl
  | _ -> []

let check_transform ?max_insts ?(label = "transform") ~original ~transformed
    ~ignore_regs ~input () =
  let run_side linked =
    let emu = Emulator.create linked ~input in
    let stores = ref [] in
    Emulator.iter ?max_insts emu (fun e ->
        match e.Event.kind with
        | Event.Mem { is_load = false; location } ->
            (* The store just retired, so the freshly written value is
               readable at its location. *)
            stores := (location, Emulator.mem_load emu location) :: !stores
        | _ -> ());
    (emu, List.rev !stores)
  in
  let o_emu, o_stores = run_side original in
  let t_emu, t_stores = run_side transformed in
  let both_halted = Emulator.halted o_emu && Emulator.halted t_emu in
  let out = ref [] in
  let err rule fmt =
    Printf.ksprintf
      (fun m ->
        out := D.error ~rule (Printf.sprintf "[%s] %s" label m) :: !out)
      fmt
  in
  (match max_insts with
  | None ->
      if Emulator.halted o_emu <> Emulator.halted t_emu then
        err "transform-termination"
          "original %s, transformed %s (retired %d vs %d)"
          (if Emulator.halted o_emu then "halts" else "runs on")
          (if Emulator.halted t_emu then "halts" else "runs on")
          (Emulator.retired o_emu) (Emulator.retired t_emu)
  | Some _ ->
      (* Capped runs stop mid-flight at different architectural
         points; termination cannot be compared. *)
      ());
  let compare_seq ~rule ~what o t =
    let o, t =
      if both_halted then (o, t)
      else
        let n = min (List.length o) (List.length t) in
        (truncate n o, truncate n t)
    in
    match first_diff 0 o t with
    | None -> ()
    | Some i ->
        let show l =
          match List.nth_opt l i with
          | Some v -> v
          | None -> Printf.sprintf "<ended at %d>" (List.length l)
        in
        err rule "first diverging %s at index %d: original %s, transformed %s"
          what i (show o) (show t)
  in
  compare_seq ~rule:"transform-output" ~what:"output value"
    (List.map string_of_int (Emulator.output o_emu))
    (List.map string_of_int (Emulator.output t_emu));
  compare_seq ~rule:"transform-stores" ~what:"retired store"
    (List.map
       (fun (l, v) -> Printf.sprintf "[%d]<-%d" l v)
       o_stores)
    (List.map (fun (l, v) -> Printf.sprintf "[%d]<-%d" l v) t_stores);
  if both_halted then begin
    let ignored r = List.exists (Reg.equal r) ignore_regs in
    let o_regs = Emulator.registers o_emu in
    let t_regs = Emulator.registers t_emu in
    (try
       for r = 0 to Reg.count - 1 do
         if (not (ignored (Reg.of_int r))) && o_regs.(r) <> t_regs.(r)
         then begin
           err "transform-registers"
             "final r%d: original %d, transformed %d" r o_regs.(r)
             t_regs.(r);
           raise Exit
         end
       done
     with Exit -> ());
    compare_seq ~rule:"transform-memory" ~what:"memory binding"
      (List.map
         (fun (l, v) -> Printf.sprintf "[%d]=%d" l v)
         (Emulator.memory_bindings o_emu))
      (List.map
         (fun (l, v) -> Printf.sprintf "[%d]=%d" l v)
         (Emulator.memory_bindings t_emu))
  end;
  List.rev !out

let run ?max_insts ?(annotations = []) linked ~input =
  let trace = Trace.capture ?max_insts linked ~input in
  let image = Image.of_trace trace in
  check_streams ?max_insts linked ~input trace image
  @ check_checkpoints ?max_insts ~label:"baseline" Config.baseline None
      linked image
  @ List.concat_map
      (fun (label, ann) ->
        check_checkpoints ?max_insts ~label:(Printf.sprintf "dmp[%s]" label)
          Config.dmp (Some ann) linked image)
      annotations
  @ check_profiles ?max_insts linked ~input trace
