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

let fresh_reach () =
  {
    prob = 0.;
    longest = 0;
    weighted_sum = 0.;
    best_path_prob = -1.;
    best_path_insts = 0;
    blocks = Int_set.empty;
    defs = Int_set.empty;
    max_cbr = 0;
  }

let record r ~prob ~insts ~cbrs ~blocks ~defs =
  r.prob <- r.prob +. prob;
  if insts > r.longest then r.longest <- insts;
  r.weighted_sum <- r.weighted_sum +. (prob *. float_of_int insts);
  if prob > r.best_path_prob then begin
    r.best_path_prob <- prob;
    r.best_path_insts <- insts
  end;
  (* A subset test allocates nothing; it skips unions that would only
     rebuild an equal set, the common case once a block is warm. *)
  if not (Int_set.subset blocks r.blocks) then
    r.blocks <- Int_set.union r.blocks blocks;
  if not (Int_set.subset defs r.defs) then
    r.defs <- Int_set.union r.defs defs;
  if cbrs > r.max_cbr then r.max_cbr <- cbrs

let explore ctx ~func ~start ~stop_blocks ~structural =
  let fn = Context.fn ctx func in
  let cfg = fn.Context.cfg in
  let params = ctx.Context.params in
  let reaches = Hashtbl.create 32 in
  let ret = fresh_reach () in
  let ret_reached = ref false in
  let truncated = ref false in
  let capped = ref false in
  let paths = ref 0 in
  let nb = Cfg.num_nodes cfg in
  let stop = Array.make nb false in
  Int_set.iter (fun b -> stop.(b) <- true) stop_blocks;
  (* How many times each block occurs on the current path, including the
     block being visited: a block is recorded on its first occurrence
     only, and the count is restored on backtrack. *)
  let on_path = Array.make nb 0 in
  let reach_of block =
    match Hashtbl.find_opt reaches block with
    | Some r -> r
    | None ->
        let r = fresh_reach () in
        Hashtbl.replace reaches block r;
        r
  in
  (* Walk all paths from [start]. At block [x] the accumulators describe
     the path prefix strictly before [x]. *)
  let rec walk x ~prob ~insts ~cbrs ~blocks ~defs =
    if !paths >= params.Params.max_paths then capped := true
    else begin
      if on_path.(x) = 0 then
        record (reach_of x) ~prob ~insts ~cbrs ~blocks ~defs;
      on_path.(x) <- on_path.(x) + 1;
      if stop.(x) then incr paths
      else begin
        let insts' = insts + fn.Context.block_weight.(x) in
        let cbrs' = cbrs + fn.Context.block_cbr.(x) in
        let blocks' = Int_set.add x blocks in
        let defs' =
          let d = fn.Context.def_sets.(x) in
          if Int_set.subset d defs then defs else Int_set.union defs d
        in
        match (Cfg.block cfg x).Dmp_ir.Block.term with
        | Dmp_ir.Term.Ret ->
            if insts' > params.Params.max_instr then truncated := true
            else begin
              ret_reached := true;
              record ret ~prob ~insts:insts' ~cbrs ~blocks:blocks' ~defs:defs'
            end;
            incr paths
        | Dmp_ir.Term.Halt -> incr paths
        | Dmp_ir.Term.Jump _ | Dmp_ir.Term.Branch _ ->
            if insts' > params.Params.max_instr
               || cbrs' > params.Params.max_cbr
            then begin
              truncated := true;
              incr paths
            end
            else
              let followed = ref false in
              List.iter
                (fun (s, p) ->
                  let follow =
                    structural || p >= params.Params.min_exec_prob
                  in
                  if follow then begin
                    followed := true;
                    let prob' = if structural then prob else prob *. p in
                    walk s ~prob:prob' ~insts:insts' ~cbrs:cbrs'
                      ~blocks:blocks' ~defs:defs'
                  end)
                fn.Context.succ_probs.(x);
              if not !followed then incr paths
      end;
      on_path.(x) <- on_path.(x) - 1
    end
  in
  walk start ~prob:1. ~insts:0 ~cbrs:0 ~blocks:Int_set.empty
    ~defs:Int_set.empty;
  {
    reaches;
    ret = (if !ret_reached then Some ret else None);
    truncated = !truncated;
    capped = !capped;
  }

let reach result block = Hashtbl.find_opt result.reaches block

let avg_insts r =
  if r.prob <= 0. then 0. else r.weighted_sum /. r.prob
