(* In-memory span recorder for the traced runs.

   Spans are recorded only around the benchmark's own calls into the
   library's public functions (one span per call, named after it) and
   tagged with the library layer that function belongs to; nothing
   inside lib/ is instrumented. The recorder is used from one domain
   only: traced runs execute at -j1. When it is disabled, [span] is a
   plain call, which is how the untraced runs that give the end-to-end
   metrics execute. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  workload : string;
  phase : string;  (* "setup" or "timed" *)
  layer : string;
  name : string;
  start : float;  (* seconds since the recorder was enabled; nan for a charge *)
  stop : float;
  self : float;  (* duration minus the part its child spans cover *)
  calls : int;  (* 1, or the call count of a charged stage row *)
  insts : int;  (* instructions the call emulated, decoded or simulated *)
}

let enabled = ref false
let workload = ref ""
let phase = ref "setup"
let origin = ref 0.
let next_id = ref 0
let stack : (int * float ref) list ref = ref []
let recorded : t list ref = ref []

let enable ~workload:w =
  enabled := true;
  workload := w;
  origin := Unix.gettimeofday ()

let now () = Unix.gettimeofday () -. !origin

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let parent_id () = match !stack with (p, _) :: _ -> p | [] -> -1

let add_to_parent seconds =
  match !stack with (_, covered) :: _ -> covered := !covered +. seconds | [] -> ()

let record ~id ~parent ~layer ~name ~start ~stop ~self ~calls ~insts =
  recorded :=
    { id; parent; workload = !workload; phase = !phase; layer; name; start;
      stop; self; calls; insts }
    :: !recorded

let span ~layer ?(insts = fun _ -> 0) name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = parent_id () in
    let covered = ref 0. in
    stack := (id, covered) :: !stack;
    let start = now () in
    let finish n =
      let stop = now () in
      stack := List.tl !stack;
      add_to_parent (stop -. start);
      record ~id ~parent ~layer ~name ~start ~stop
        ~self:(stop -. start -. !covered) ~calls:1 ~insts:n
    in
    match f () with
    | r ->
        finish (insts r);
        r
    | exception e ->
        finish 0;
        raise e
  end

(* Attribute time measured elsewhere (a Runner stage-timing row, which
   is additive inside the current span at -j1) to a layer, as a child of
   the innermost open span. *)
let charge ~layer ~name ~calls seconds =
  if !enabled then begin
    add_to_parent seconds;
    record ~id:(fresh ()) ~parent:(parent_id ()) ~layer ~name ~start:Float.nan
      ~stop:Float.nan ~self:seconds ~calls ~insts:0
  end

let take () =
  let r = List.rev !recorded in
  recorded := [];
  r

let to_json s =
  let num f = if Float.is_nan f then Json.Null else Json.Num f in
  Json.Obj
    [ ("id", Json.Num (float_of_int s.id));
      ("parent", Json.Num (float_of_int s.parent));
      ("workload", Json.Str s.workload); ("phase", Json.Str s.phase);
      ("layer", Json.Str s.layer); ("name", Json.Str s.name);
      ("start", num s.start); ("end", num s.stop); ("self", Json.Num s.self);
      ("calls", Json.Num (float_of_int s.calls));
      ("insts", Json.Num (float_of_int s.insts)) ]
