(* Textual assembly syntax for IR programs: a printer whose output the
   parser accepts, so programs can be written, stored and diffed as
   text.

     func main {
     entry:
       li r4, 100
       add r5, r4, 3
       sub r5, r5, r4
       ld r6, 8(r5)
       st r6, 0(r5)
       call helper
       read r7
       write r7
       bne r4, 0, then_lbl, else_lbl
     then_lbl:
       jmp join
     ...
     }

   A conditional branch lists the taken target and then the fall-through
   target. *)

(* ---------- printing ---------- *)

let pp_operand buf = function
  | Instr.Reg r -> Buffer.add_string buf (Fmt.str "%a" Reg.pp r)
  | Instr.Imm i -> Buffer.add_string buf (string_of_int i)

let print_instr buf ins =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let r fmt_r = Fmt.str "%a" Reg.pp fmt_r in
  match ins with
  | Instr.Alu { op; dst; src1; src2 } ->
      add "  %s %s, %s, " (Instr.alu_op_to_string op) (r dst) (r src1);
      pp_operand buf src2;
      add "\n"
  | Instr.Load { dst; base; offset } ->
      add "  ld %s, %d(%s)\n" (r dst) offset (r base)
  | Instr.Store { src; base; offset } ->
      add "  st %s, %d(%s)\n" (r src) offset (r base)
  | Instr.Li { dst; imm } -> add "  li %s, %d\n" (r dst) imm
  | Instr.Mov { dst; src } -> add "  mov %s, %s\n" (r dst) (r src)
  | Instr.Call { callee } -> add "  call %s\n" callee
  | Instr.Read { dst } -> add "  read %s\n" (r dst)
  | Instr.Write { src } -> add "  write %s\n" (r src)
  | Instr.Select { dst; cond; if_true; if_false } ->
      add "  sel %s, %s, %s, " (r dst) (r cond) (r if_true);
      pp_operand buf if_false;
      add "\n"
  | Instr.Nop -> add "  nop\n"

let print_func buf (f : Func.t) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "func %s {\n" f.Func.name;
  Array.iter
    (fun b ->
      add "%s:\n" b.Block.label;
      Array.iter (print_instr buf) b.Block.body;
      let label j = (Func.block f j).Block.label in
      match b.Block.term with
      | Term.Branch { cond; src1; src2; target; fall } ->
          add "  %s %s, " (Term.cond_to_string cond) (Fmt.str "%a" Reg.pp src1);
          pp_operand buf src2;
          add ", %s, %s\n" (label target) (label fall)
      | Term.Jump l -> add "  jmp %s\n" (label l)
      | Term.Ret -> add "  ret\n"
      | Term.Halt -> add "  halt\n")
    f.Func.blocks;
  add "}\n"

let to_string (p : Program.t) =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf '\n';
      print_func buf f)
    p.Program.funcs;
  Buffer.contents buf

(* ---------- parsing ---------- *)

(* Raised inside the parser only; [of_string] turns it into [Error]. *)
exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_reg line w =
  if String.length w >= 2 && w.[0] = 'r' then
    match int_of_string_opt (String.sub w 1 (String.length w - 1)) with
    | Some i when i >= 0 && i < Reg.count -> Reg.of_int i
    | _ -> fail line "bad register %s" w
  else fail line "expected register, got %s" w

let parse_operand line w =
  if String.length w >= 2 && w.[0] = 'r' && w.[1] >= '0' && w.[1] <= '9' then
    Instr.Reg (parse_reg line w)
  else
    match int_of_string_opt w with
    | Some i -> Instr.Imm i
    | None -> fail line "expected operand, got %s" w

(* "8(r5)" -> (8, r5) *)
let parse_mem line w =
  match String.index_opt w '(' with
  | Some i when String.length w > i + 1 && w.[String.length w - 1] = ')' ->
      let off = String.sub w 0 i in
      let base = String.sub w (i + 1) (String.length w - i - 2) in
      (match int_of_string_opt off with
      | Some offset -> (offset, parse_reg line base)
      | None -> fail line "bad memory offset in %s" w)
  | _ -> fail line "expected offset(reg), got %s" w

let cond_of_mnemonic = function
  | "beq" -> Some Term.Eq
  | "bne" -> Some Term.Ne
  | "blt" -> Some Term.Lt
  | "bge" -> Some Term.Ge
  | "ble" -> Some Term.Le
  | "bgt" -> Some Term.Gt
  | _ -> None

let parse text =
  let lines = String.split_on_char '\n' text in
  let funcs = ref [] in
  let current : Build.fn option ref = ref None in
  let started_blocks = ref false in
  let main = ref None in
  let finish_current () =
    match !current with
    | Some fn ->
        funcs := Build.finish fn :: !funcs;
        current := None
    | None -> ()
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      let line =
        match String.index_opt line ';' with
        | Some i -> String.trim (String.sub line 0 i)
        | None -> line
      in
      if line = "" then ()
      else if String.length line > 5 && String.sub line 0 5 = "func " then begin
        if !current <> None then fail lineno "func inside func";
        let rest = String.trim (String.sub line 5 (String.length line - 5)) in
        let name =
          match String.index_opt rest '{' with
          | Some i -> String.trim (String.sub rest 0 i)
          | None -> fail lineno "expected '{' after func name"
        in
        if name = "" then fail lineno "empty function name";
        if !main = None then main := Some name;
        (* The first label line names the entry block; create the
           builder lazily so we can use that label. *)
        current := Some (Build.func ~entry:"__pending__" name);
        started_blocks := false
      end
      else if line = "}" then finish_current ()
      else
        match !current with
        | None -> fail lineno "statement outside func"
        | Some fn ->
            if String.length line > 1 && line.[String.length line - 1] = ':'
            then begin
              let label = String.sub line 0 (String.length line - 1) in
              if !started_blocks then Build.label fn label
              else begin
                (* rename the pending entry block by starting fresh *)
                Build.rename_entry fn label;
                started_blocks := true
              end
            end
            else begin
              if not !started_blocks then
                fail lineno "instruction before first label";
              match split_words line with
              | [] -> ()
              | op :: args -> (
                  match (op, args) with
                  | "li", [ d; i ] -> (
                      match int_of_string_opt i with
                      | Some imm -> Build.li fn (parse_reg lineno d) imm
                      | None -> fail lineno "bad immediate %s" i)
                  | "mov", [ d; s ] ->
                      Build.mov fn (parse_reg lineno d) (parse_reg lineno s)
                  | "ld", [ d; m ] ->
                      let offset, base = parse_mem lineno m in
                      Build.load fn (parse_reg lineno d) base offset
                  | "st", [ s; m ] ->
                      let offset, base = parse_mem lineno m in
                      Build.store fn (parse_reg lineno s) base offset
                  | "call", [ callee ] -> Build.call fn callee
                  | "read", [ d ] -> Build.read fn (parse_reg lineno d)
                  | "write", [ s ] -> Build.write fn (parse_reg lineno s)
                  | "sel", [ d; c; t; f ] ->
                      Build.select fn (parse_reg lineno d)
                        (parse_reg lineno c) (parse_reg lineno t)
                        (parse_operand lineno f)
                  | "nop", [] -> Build.nop fn
                  | "jmp", [ l ] -> Build.jump fn l
                  | "ret", [] -> Build.ret fn
                  | "halt", [] -> Build.halt fn
                  | _, [ s1; s2; target; fall ]
                    when cond_of_mnemonic op <> None ->
                      let cond = Option.get (cond_of_mnemonic op) in
                      Build.branch fn cond (parse_reg lineno s1)
                        (parse_operand lineno s2)
                        ~target ~fall ()
                  | _, [ s1; s2; target ] when cond_of_mnemonic op <> None ->
                      let cond = Option.get (cond_of_mnemonic op) in
                      Build.branch fn cond (parse_reg lineno s1)
                        (parse_operand lineno s2)
                        ~target ()
                  | _, _ -> (
                      match Instr.alu_op_of_string op with
                      | Some alu -> (
                          match args with
                          | [ d; s1; s2 ] ->
                              Build.alu fn alu (parse_reg lineno d)
                                (parse_reg lineno s1)
                                (parse_operand lineno s2)
                          | _ -> fail lineno "bad ALU operands")
                      | None -> fail lineno "unknown mnemonic %s" op))
            end)
    lines;
  if !current <> None then fail 0 "missing closing '}'";
  match !main with
  | None -> Error "no functions"
  | Some main -> (
      match Program.of_funcs ~main (List.rev !funcs) with
      | Ok p -> Ok p
      | Error m -> Error m)

(* The builder reports structural errors (a duplicate label, a branch
   to an unknown one) with [Invalid_argument]. *)
let of_string text =
  try parse text with
  | Parse_error (line, m) -> Error (Printf.sprintf "line %d: %s" line m)
  | Invalid_argument m -> Error m
