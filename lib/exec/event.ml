type kind =
  | Branch of { taken : bool; target : int; fall : int }
  | Mem of { is_load : bool; location : int }
  | Call of { callee_entry : int }
  | Return of { return_to : int }
  | Plain

type t = { addr : int; kind : kind; next : int }

let halted_next = -1
let is_branch e = match e.kind with Branch _ -> true | _ -> false

let pp ppf e =
  let pp_kind ppf = function
    | Branch { taken; target; fall } ->
        Fmt.pf ppf "branch %s -> %d (fall %d)"
          (if taken then "taken" else "not-taken")
          target fall
    | Mem { is_load; location } ->
        Fmt.pf ppf "%s @%d" (if is_load then "load" else "store") location
    | Call { callee_entry } -> Fmt.pf ppf "call -> %d" callee_entry
    | Return { return_to } -> Fmt.pf ppf "ret -> %d" return_to
    | Plain -> Fmt.pf ppf "plain"
  in
  Fmt.pf ppf "{%d %a next=%d}" e.addr pp_kind e.kind e.next

let tag_fall = 0
let tag_jump = 1
let tag_branch_taken = 2
let tag_branch_not_taken = 3
let tag_load = 4
let tag_store = 5
let tag_call = 6
let tag_ret = 7

let box ~addr ~tag ~p1 ~p2 ~next =
  let kind =
    match tag with
    | 0 | 1 -> Plain
    | 2 -> Branch { taken = true; target = p1; fall = p2 }
    | 3 -> Branch { taken = false; target = p1; fall = p2 }
    | 4 -> Mem { is_load = true; location = p1 }
    | 5 -> Mem { is_load = false; location = p1 }
    | 6 -> Call { callee_entry = p1 }
    | _ -> Return { return_to = p1 }
  in
  { addr; kind; next }
