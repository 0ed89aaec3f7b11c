open Dmp_cfg

module Int_set = Context.Int_set

type reach = {
  mutable prob : float;
  mutable longest : int;
  mutable weighted_sum : float;
  mutable best_path_prob : float;
  mutable best_path_insts : int;
  mutable blocks : Int_set.t;
  mutable defs : Int_set.t;
  mutable max_cbr : int;
}

type result = {
  reaches : (int, reach) Hashtbl.t;
  ret : reach option;
  truncated : bool;
  capped : bool;
}

(* Block sets are bitsets of [words] ints: block b is bit
   [b mod word_bits] of word [b / word_bits] (OCaml 5 ints have 63
   bits). *)
let word_bits = 63

let set_of_bits bits ~base ~words =
  let rec add set b word =
    if word = 0 then set
    else
      add
        (if word land 1 <> 0 then Int_set.add b set else set)
        (b + 1) (word lsr 1)
  in
  let set = ref Int_set.empty in
  for w = 0 to words - 1 do
    set := add !set (w * word_bits) bits.(base + w)
  done;
  !set

exception Overflow

(* The walk behind [explore] and [structural_within_bounds]. A visit
   allocates nothing: the path's probability sits in a stack indexed by
   depth, its blocks in a bitset kept in step with [on_path], its defs
   in a register mask, and every reach in flat per-block slots that are
   turned into the public records once, at the end. With [early], the
   first path over MAX_INSTR/MAX_CBR or the [max_paths] cap raises
   [Overflow]. *)
let walk_paths ~early ctx ~func ~start ~stop_blocks ~structural =
  let fn = Context.fn ctx func in
  let params = ctx.Context.params in
  let max_instr = params.Params.max_instr
  and max_cbr = params.Params.max_cbr
  and max_paths = params.Params.max_paths
  and min_exec_prob = params.Params.min_exec_prob in
  let nb = Cfg.num_nodes fn.Context.cfg in
  let words = (nb + word_bits - 1) / word_bits in
  let stop = Array.make nb false in
  Int_set.iter (fun b -> stop.(b) <- true) stop_blocks;
  (* How many times each block occurs on the current path, and the set
     of those that occur at all: a block is recorded on its first
     occurrence only. *)
  let on_path = Array.make nb 0 in
  let path = Array.make words 0 in
  (* Probability of the path prefix at each depth. A block weighs at
     least one instruction (its terminator), so no walk goes deeper
     than MAX_INSTR. *)
  let probs = Array.make (max 0 max_instr + 2) 1. in
  (* Reach slots: block b's at index b, the return aggregate at nb. *)
  let slots = nb + 1 in
  let reached = Array.make slots false in
  let r_prob = Array.make slots 0. in
  let r_longest = Array.make slots 0 in
  let r_weighted = Array.make slots 0. in
  let r_best_prob = Array.make slots (-1.) in
  let r_best_insts = Array.make slots 0 in
  let r_blocks = Array.make (slots * words) 0 in
  let r_defs = Array.make slots 0 in
  let r_cbr = Array.make slots 0 in
  let paths = ref 0 in
  let truncated = ref false in
  let capped = ref false in
  let overflow flag =
    flag := true;
    if early then raise_notrace Overflow
  in
  let record s d ~insts ~cbrs ~defs =
    let prob = probs.(d) in
    reached.(s) <- true;
    r_prob.(s) <- r_prob.(s) +. prob;
    if insts > r_longest.(s) then r_longest.(s) <- insts;
    r_weighted.(s) <- r_weighted.(s) +. (prob *. float_of_int insts);
    if prob > r_best_prob.(s) then begin
      r_best_prob.(s) <- prob;
      r_best_insts.(s) <- insts
    end;
    let base = s * words in
    for w = 0 to words - 1 do
      r_blocks.(base + w) <- r_blocks.(base + w) lor path.(w)
    done;
    r_defs.(s) <- r_defs.(s) lor defs;
    if cbrs > r_cbr.(s) then r_cbr.(s) <- cbrs
  in
  (* Walk all paths from [x] at depth [d]; the arguments describe the
     path prefix strictly before [x]. *)
  let rec walk x d ~insts ~cbrs ~defs =
    if !paths >= max_paths then overflow capped
    else begin
      if on_path.(x) = 0 then record x d ~insts ~cbrs ~defs;
      if stop.(x) then incr paths
      else begin
        let w = x / word_bits and bit = 1 lsl (x mod word_bits) in
        let n = on_path.(x) in
        on_path.(x) <- n + 1;
        if n = 0 then path.(w) <- path.(w) lor bit;
        let insts' = insts + fn.Context.block_weight.(x) in
        let cbrs' = cbrs + fn.Context.block_cbr.(x) in
        let defs' = defs lor fn.Context.def_masks.(x) in
        (match fn.Context.terms.(x) with
        | Dmp_ir.Term.Ret ->
            if insts' > max_instr then overflow truncated
            else record nb d ~insts:insts' ~cbrs ~defs:defs';
            incr paths
        | Dmp_ir.Term.Halt -> incr paths
        | Dmp_ir.Term.Jump _ | Dmp_ir.Term.Branch _ ->
            if insts' > max_instr || cbrs' > max_cbr then begin
              overflow truncated;
              incr paths
            end
            else if
              not
                (walk_succs fn.Context.succ_probs.(x) d ~insts:insts'
                   ~cbrs:cbrs' ~defs:defs')
            then incr paths);
        on_path.(x) <- n;
        if n = 0 then path.(w) <- path.(w) land lnot bit
      end
    end
  (* Follow each successor in turn; true when any was followed. *)
  and walk_succs succs d ~insts ~cbrs ~defs =
    match succs with
    | [] -> false
    | (s, p) :: rest ->
        let follow = structural || p >= min_exec_prob in
        if follow then begin
          if not structural then probs.(d + 1) <- probs.(d) *. p;
          walk s (d + 1) ~insts ~cbrs ~defs
        end;
        let followed = walk_succs rest d ~insts ~cbrs ~defs in
        follow || followed
  in
  walk start 0 ~insts:0 ~cbrs:0 ~defs:0;
  let reach_of s =
    {
      prob = r_prob.(s);
      longest = r_longest.(s);
      weighted_sum = r_weighted.(s);
      best_path_prob = r_best_prob.(s);
      best_path_insts = r_best_insts.(s);
      blocks = set_of_bits r_blocks ~base:(s * words) ~words;
      defs = Context.defs_of_mask r_defs.(s);
      max_cbr = r_cbr.(s);
    }
  in
  let reaches = Hashtbl.create 32 in
  for b = 0 to nb - 1 do
    if reached.(b) then Hashtbl.replace reaches b (reach_of b)
  done;
  {
    reaches;
    ret = (if reached.(nb) then Some (reach_of nb) else None);
    truncated = !truncated;
    capped = !capped;
  }

let explore ctx ~func ~start ~stop_blocks ~structural =
  walk_paths ~early:false ctx ~func ~start ~stop_blocks ~structural

let structural_within_bounds ctx ~func ~start ~stop_blocks =
  match
    walk_paths ~early:true ctx ~func ~start ~stop_blocks ~structural:true
  with
  | result -> Some result
  | exception Overflow -> None

let reach result block = Hashtbl.find_opt result.reaches block

let avg_insts r =
  if r.prob <= 0. then 0. else r.weighted_sum /. r.prob
