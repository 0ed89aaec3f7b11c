type branch_kind =
  | Simple_hammock
  | Nested_hammock
  | Frequently_hammock
  | Loop_branch

type cfm = {
  cfm_addr : int;
  exact : bool;
  merge_prob : float;
  select_uops : int;
}

type loop_info = {
  body_insts : int;
  exit_target_addr : int;
  avg_iterations : float;
  loop_select_uops : int;
}

type diverge = {
  branch_addr : int;
  kind : branch_kind;
  cfms : cfm list;
  return_cfm : bool;
  always_predicate : bool;
  loop : loop_info option;
}

type t = { table : (int, diverge) Hashtbl.t }

let branch_kind_to_string = function
  | Simple_hammock -> "simple"
  | Nested_hammock -> "nested"
  | Frequently_hammock -> "freq"
  | Loop_branch -> "loop"

let empty () = { table = Hashtbl.create 64 }

let add t d =
  if Hashtbl.mem t.table d.branch_addr then
    invalid_arg
      (Printf.sprintf "Annotation.add: branch %d already marked" d.branch_addr);
  Hashtbl.replace t.table d.branch_addr d

let replace t d = Hashtbl.replace t.table d.branch_addr d
let find t addr = Hashtbl.find_opt t.table addr
let is_diverge t addr = Hashtbl.mem t.table addr
let count t = Hashtbl.length t.table
let fold f t acc = Hashtbl.fold (fun _ d acc -> f d acc) t.table acc
let iter f t = Hashtbl.iter (fun _ d -> f d) t.table

let diverge_addrs t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.table []
  |> List.sort Int.compare

let average_cfm_count t =
  let n, total =
    fold
      (fun d (n, total) ->
        match d.kind with
        | Loop_branch -> (n, total)
        | Simple_hammock | Nested_hammock | Frequently_hammock ->
            (n + 1, total + max 1 (List.length d.cfms)))
      t (0, 0)
  in
  if n = 0 then 0. else float_of_int total /. float_of_int n

(* ---------- compiled form ----------

   The simulator consults the annotation once per fetched conditional
   branch and scans the current diverge branch's CFM list once per
   fetch slot while in dpred-mode. The compiled form resolves both at
   load time: a dense per-address table (one slot per instruction of
   the program, so the lookup is an array read) and, per diverge
   branch, the hammock CFM points as parallel sorted int arrays plus
   the resolved return-CFM select count — replacing the [List.exists] /
   [List.assoc_opt] scans over boxed pairs in the per-slot loop. *)

type compiled = {
  c_diverge : diverge;
  c_cfm_addrs : int array;
  c_cfm_selects : int array;
  c_ret_selects : int;
}

let default_ret_selects = 4

let compile_diverge d =
  (* Entries with a negative address designate the return CFM and carry
     its select-µop count; the last one in declaration order wins, as
     does the last entry for a repeated CFM address. *)
  let tbl = Hashtbl.create 8 in
  let ret_selects = ref default_ret_selects in
  List.iter
    (fun c ->
      if c.cfm_addr >= 0 then Hashtbl.replace tbl c.cfm_addr c.select_uops
      else ret_selects := c.select_uops)
    d.cfms;
  let addrs =
    List.sort Int.compare (Hashtbl.fold (fun a _ acc -> a :: acc) tbl [])
  in
  {
    c_diverge = d;
    c_cfm_addrs = Array.of_list addrs;
    c_cfm_selects =
      Array.of_list (List.map (fun a -> Hashtbl.find tbl a) addrs);
    c_ret_selects = !ret_selects;
  }

let compile ~size t =
  let table = Array.make size None in
  iter
    (fun d ->
      if d.branch_addr >= 0 && d.branch_addr < size then
        table.(d.branch_addr) <- Some (compile_diverge d))
    t;
  table

(* Behavioural fingerprint of a compiled table: a digest of exactly the
   fields the simulator reads (branch slot, kind, always/return flags,
   the resolved CFM address/select arrays, the return-CFM select count,
   and the loop geometry). Selection-time metadata the hardware never
   sees — [merge_prob], [exact], [avg_iterations] — is deliberately
   excluded, so two annotations that compile to the same hardware table
   fingerprint identically even when derived from different profiles.
   The rendering is integer-only (no float formatting), hence stable
   across platforms and insertion orders. *)
module Compiled = struct
  let render_slot b i (c : compiled) =
    let d = c.c_diverge in
    Buffer.add_string b
      (Printf.sprintf "%d:%s%s%s" i
         (branch_kind_to_string d.kind)
         (if d.always_predicate then ":a" else "")
         (if d.return_cfm then ":r" else ""));
    Array.iteri
      (fun j addr ->
        Buffer.add_string b
          (Printf.sprintf ";%d=%d" addr c.c_cfm_selects.(j)))
      c.c_cfm_addrs;
    Buffer.add_string b (Printf.sprintf "|%d" c.c_ret_selects);
    (match d.loop with
    | Some l ->
        Buffer.add_string b
          (Printf.sprintf "|L%d,%d,%d" l.body_insts l.exit_target_addr
             l.loop_select_uops)
    | None -> ());
    Buffer.add_char b '\n'

  let fingerprint table =
    let b = Buffer.create 256 in
    Buffer.add_string b (string_of_int (Array.length table));
    Buffer.add_char b '\n';
    Array.iteri
      (fun i slot ->
        match slot with Some c -> render_slot b i c | None -> ())
      table;
    Digest.to_hex (Digest.string (Buffer.contents b))

  let equal a b = String.equal (fingerprint a) (fingerprint b)

end

let cfm_index c addr =
  (* CFM lists are tiny (<= Params.max_cfm); a linear scan of the
     sorted array beats binary search at this size. *)
  let n = Array.length c.c_cfm_addrs in
  let rec go i =
    if i >= n then -1
    else
      let a = Array.unsafe_get c.c_cfm_addrs i in
      if a = addr then i else if a > addr then -1 else go (i + 1)
  in
  go 0

let is_cfm c addr = cfm_index c addr >= 0

let cfm_selects c addr =
  let i = cfm_index c addr in
  if i >= 0 then c.c_cfm_selects.(i) else 0

let pp_diverge ppf d =
  Fmt.pf ppf "@[<h>br@%d %s%s%s cfms=[%a]%a@]" d.branch_addr
    (branch_kind_to_string d.kind)
    (if d.always_predicate then " always" else "")
    (if d.return_cfm then " ret-cfm" else "")
    (Fmt.list ~sep:Fmt.comma (fun ppf c ->
         Fmt.pf ppf "%d(p=%.2f,sel=%d%s)" c.cfm_addr c.merge_prob
           c.select_uops
           (if c.exact then ",exact" else "")))
    d.cfms
    (Fmt.option (fun ppf l ->
         Fmt.pf ppf " loop(body=%d,exit=%d,iter=%.1f)" l.body_insts
           l.exit_target_addr l.avg_iterations))
    d.loop

(* ---------- serialisation ----------
   One line per diverge branch, mirroring the "list of diverge branches
   and CFM points attached to the binary" of Section 6.1:
     <addr> <kind> [always] [ret] cfm=<addr>:<exact01>:<prob>:<selects> ...
       [loop=<body>:<exit>:<iter>:<selects>] *)

let diverge_to_line d =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "%d %s" d.branch_addr (branch_kind_to_string d.kind));
  if d.always_predicate then Buffer.add_string b " always";
  if d.return_cfm then Buffer.add_string b " ret";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf " cfm=%d:%d:%.6f:%d" c.cfm_addr
           (if c.exact then 1 else 0)
           c.merge_prob c.select_uops))
    d.cfms;
  (match d.loop with
  | Some l ->
      Buffer.add_string b
        (Printf.sprintf " loop=%d:%d:%.6f:%d" l.body_insts
           l.exit_target_addr l.avg_iterations l.loop_select_uops)
  | None -> ());
  Buffer.contents b

let to_string t =
  String.concat "\n"
    (List.filter_map
       (fun addr -> Option.map diverge_to_line (find t addr))
       (diverge_addrs t))
  ^ "\n"

let branch_kind_of_string = function
  | "simple" -> Some Simple_hammock
  | "nested" -> Some Nested_hammock
  | "freq" -> Some Frequently_hammock
  | "loop" -> Some Loop_branch
  | _ -> None

let line_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | [] | [ "" ] -> Ok None
  | [ _ ] -> Error (Printf.sprintf "bad line: %s" line)
  | addr :: kind :: rest -> (
      match (int_of_string_opt addr, branch_kind_of_string kind) with
      | Some branch_addr, Some kind ->
          let d =
            ref
              { branch_addr; kind; cfms = []; return_cfm = false;
                always_predicate = false; loop = None }
          in
          let bad = ref None in
          List.iter
            (fun tok ->
              if tok = "always" then
                d := { !d with always_predicate = true }
              else if tok = "ret" then d := { !d with return_cfm = true }
              else
                match String.index_opt tok '=' with
                | Some i -> (
                    let key = String.sub tok 0 i in
                    let v = String.sub tok (i + 1)
                        (String.length tok - i - 1)
                    in
                    match (key, String.split_on_char ':' v) with
                    | "cfm", [ a; e; p; s ] -> (
                        match
                          ( int_of_string_opt a, int_of_string_opt e,
                            float_of_string_opt p, int_of_string_opt s )
                        with
                        | Some cfm_addr, Some e, Some merge_prob,
                          Some select_uops ->
                            d :=
                              { !d with
                                cfms =
                                  !d.cfms
                                  @ [ { cfm_addr; exact = e = 1;
                                        merge_prob; select_uops } ];
                              }
                        | _ -> bad := Some tok)
                    | "loop", [ bi; ex; it; s ] -> (
                        match
                          ( int_of_string_opt bi, int_of_string_opt ex,
                            float_of_string_opt it, int_of_string_opt s )
                        with
                        | Some body_insts, Some exit_target_addr,
                          Some avg_iterations, Some loop_select_uops ->
                            d :=
                              { !d with
                                loop =
                                  Some
                                    { body_insts; exit_target_addr;
                                      avg_iterations; loop_select_uops };
                              }
                        | _ -> bad := Some tok)
                    | _ -> bad := Some tok)
                | None -> bad := Some tok)
            rest;
          (match !bad with
          | Some tok -> Error (Printf.sprintf "bad token %s" tok)
          | None -> Ok (Some !d))
      | _ -> Error (Printf.sprintf "bad line: %s" line))

let of_string text =
  let t = empty () in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None then
        match line_of_string line with
        | Ok (Some d) -> replace t d
        | Ok None -> ()
        | Error m -> err := Some (Printf.sprintf "line %d: %s" (i + 1) m))
    (String.split_on_char '\n' text);
  match !err with Some m -> Error m | None -> Ok t

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun addr ->
      match find t addr with
      | Some d -> Fmt.pf ppf "%a@," pp_diverge d
      | None -> ())
    (diverge_addrs t);
  Fmt.pf ppf "@]"
