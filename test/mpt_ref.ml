(* Test-only reference for Dmp_mpp.Mpt: the Merge Point Table as it was
   before the first-common search used a hash set. [first_common]
   compares the two recorded paths pairwise. The differential tests in
   test_mpp.ml require the table's exports and predictions to be equal
   after every observation. The configuration type is the library's, so
   both tables are built from the same [Mpt.default] / [Mpt.small], and
   [export]/[import] are the library's, so snapshots move between the
   two. *)

type config = Dmp_mpp.Mpt.config = {
  log2_sets : int;
  ways : int;
  window : int;
  max_conf : int;
  conf_threshold : int;
  select_uops : int;
}

(* One open tracker: the path of depth-0 PCs retired after tr_branch.
   tr_depth counts call nesting relative to the branch's frame. *)
type tracker = {
  mutable tr_live : bool;
  mutable tr_branch : int;
  mutable tr_taken : bool;
  mutable tr_depth : int;
  mutable tr_len : int;
  tr_path : int array;
}

let max_trackers = 4

type t = {
  cfg : config;
  entries : int;  (* sets * ways *)
  tag : int array;  (* branch address, -1 = invalid *)
  merge : int array;  (* candidate merge PC, -1 = none yet *)
  conf : int array;
  lru : int array;  (* monotone use clock *)
  len_t : int array;  (* taken-direction path length, 0 = none *)
  len_nt : int array;
  path_t : int array array;
  path_nt : int array array;
  mutable clock : int;
  trackers : tracker array;
  mutable tracker_head : int;  (* oldest live tracker slot *)
  mutable tracker_count : int;
}

let config t = t.cfg

let create cfg =
  if cfg.log2_sets < 0 || cfg.log2_sets > 20 then
    invalid_arg "Mpt.create: log2_sets out of range";
  if cfg.ways < 1 then invalid_arg "Mpt.create: ways < 1";
  if cfg.window < 1 then invalid_arg "Mpt.create: window < 1";
  if cfg.max_conf < 1 then invalid_arg "Mpt.create: max_conf < 1";
  if cfg.conf_threshold < 1 || cfg.conf_threshold > cfg.max_conf then
    invalid_arg "Mpt.create: conf_threshold out of range";
  if cfg.select_uops < 0 then invalid_arg "Mpt.create: select_uops < 0";
  let entries = (1 lsl cfg.log2_sets) * cfg.ways in
  {
    cfg;
    entries;
    tag = Array.make entries (-1);
    merge = Array.make entries (-1);
    conf = Array.make entries 0;
    lru = Array.make entries 0;
    len_t = Array.make entries 0;
    len_nt = Array.make entries 0;
    path_t = Array.init entries (fun _ -> Array.make cfg.window 0);
    path_nt = Array.init entries (fun _ -> Array.make cfg.window 0);
    clock = 0;
    trackers =
      Array.init max_trackers (fun _ ->
          {
            tr_live = false;
            tr_branch = 0;
            tr_taken = false;
            tr_depth = 0;
            tr_len = 0;
            tr_path = Array.make cfg.window 0;
          });
    tracker_head = 0;
    tracker_count = 0;
  }

let set_of t addr = addr land ((1 lsl t.cfg.log2_sets) - 1)

let find_way t addr =
  let base = set_of t addr * t.cfg.ways in
  let rec go w =
    if w = t.cfg.ways then -1
    else if t.tag.(base + w) = addr then base + w
    else go (w + 1)
  in
  go 0

(* Victim selection is fully deterministic: an invalid way first, then
   the lowest confidence, ties broken by oldest use then lowest way. *)
let victim_way t addr =
  let base = set_of t addr * t.cfg.ways in
  let best = ref base in
  let better e =
    if t.tag.(e) = -1 then t.tag.(!best) <> -1
    else if t.tag.(!best) = -1 then false
    else if t.conf.(e) <> t.conf.(!best) then t.conf.(e) < t.conf.(!best)
    else t.lru.(e) < t.lru.(!best)
  in
  for w = 1 to t.cfg.ways - 1 do
    if better (base + w) then best := base + w
  done;
  !best

(* The earliest PC of [path] (length [len]) also present in the other
   direction's recorded path — the two walks' first common point. *)
let first_common path len other other_len =
  let rec go i =
    if i = len then -1
    else
      let pc = path.(i) in
      let rec mem j = j < other_len && (other.(j) = pc || mem (j + 1)) in
      if mem 0 then pc else go (i + 1)
  in
  go 0

let deliver t tk =
  if tk.tr_live then begin
  tk.tr_live <- false;
  if tk.tr_len > 0 then begin
    let e =
      match find_way t tk.tr_branch with
      | -1 ->
          let e = victim_way t tk.tr_branch in
          t.tag.(e) <- tk.tr_branch;
          t.merge.(e) <- -1;
          t.conf.(e) <- 0;
          t.len_t.(e) <- 0;
          t.len_nt.(e) <- 0;
          e
      | e -> e
    in
    t.clock <- t.clock + 1;
    t.lru.(e) <- t.clock;
    let mine, mine_len, other, other_len =
      if tk.tr_taken then (t.path_t, t.len_t, t.path_nt, t.len_nt)
      else (t.path_nt, t.len_nt, t.path_t, t.len_t)
    in
    Array.blit tk.tr_path 0 mine.(e) 0 tk.tr_len;
    mine_len.(e) <- tk.tr_len;
    if other_len.(e) > 0 then begin
      let cand = first_common tk.tr_path tk.tr_len other.(e) other_len.(e) in
      if cand >= 0 then
        if t.merge.(e) = cand then
          t.conf.(e) <- min (t.conf.(e) + 1) t.cfg.max_conf
        else if t.merge.(e) = -1 || t.conf.(e) = 0 then begin
          t.merge.(e) <- cand;
          t.conf.(e) <- 1
        end
        else t.conf.(e) <- t.conf.(e) - 1
    end
  end
  end

let kill_oldest t =
  let tk = t.trackers.(t.tracker_head) in
  t.tracker_head <- (t.tracker_head + 1) mod max_trackers;
  t.tracker_count <- t.tracker_count - 1;
  deliver t tk

(* Record a retired PC into every open tracker sitting at its branch's
   own call depth; a full window closes the tracker. *)
let record t addr =
  for i = 0 to t.tracker_count - 1 do
    let tk = t.trackers.((t.tracker_head + i) mod max_trackers) in
    if tk.tr_live && tk.tr_depth = 0 then
      (* A re-execution of the tracker's own branch means the loop
         wrapped: close here, or the path would pick up the next
         iteration's other arm and fake a pre-merge common PC. *)
      if addr = tk.tr_branch then deliver t tk
      else begin
        tk.tr_path.(tk.tr_len) <- addr;
        tk.tr_len <- tk.tr_len + 1;
        if tk.tr_len = t.cfg.window then deliver t tk
      end
  done;
  (* Compact delivered trackers off the front of the age queue. *)
  while t.tracker_count > 0 && not t.trackers.(t.tracker_head).tr_live do
    t.tracker_head <- (t.tracker_head + 1) mod max_trackers;
    t.tracker_count <- t.tracker_count - 1
  done

let observe t ~addr = record t addr

let observe_branch t ~addr ~taken =
  record t addr;
  if t.tracker_count = max_trackers then kill_oldest t;
  let slot = (t.tracker_head + t.tracker_count) mod max_trackers in
  let tk = t.trackers.(slot) in
  tk.tr_live <- true;
  tk.tr_branch <- addr;
  tk.tr_taken <- taken;
  tk.tr_depth <- 0;
  tk.tr_len <- 0;
  t.tracker_count <- t.tracker_count + 1

let observe_call t ~addr =
  record t addr;
  for i = 0 to t.tracker_count - 1 do
    let tk = t.trackers.((t.tracker_head + i) mod max_trackers) in
    if tk.tr_live then tk.tr_depth <- tk.tr_depth + 1
  done

let observe_ret t =
  for i = 0 to t.tracker_count - 1 do
    let tk = t.trackers.((t.tracker_head + i) mod max_trackers) in
    if tk.tr_live then
      if tk.tr_depth = 0 then deliver t tk
      else tk.tr_depth <- tk.tr_depth - 1
  done;
  while t.tracker_count > 0 && not t.trackers.(t.tracker_head).tr_live do
    t.tracker_head <- (t.tracker_head + 1) mod max_trackers;
    t.tracker_count <- t.tracker_count - 1
  done

let predict t ~addr =
  match find_way t addr with
  | -1 -> None
  | e ->
      if t.merge.(e) >= 0 && t.conf.(e) >= t.cfg.conf_threshold then
        Some t.merge.(e)
      else None

let predictions t =
  let acc = ref [] in
  for e = t.entries - 1 downto 0 do
    if t.tag.(e) >= 0 && t.merge.(e) >= 0 then
      acc := (t.tag.(e), t.merge.(e), t.conf.(e)) :: !acc
  done;
  List.sort compare !acc

(* Export layout: a geometry header guarding import, then the entry
   arrays (paths padded to [window]), then the queued trackers oldest
   first. A tracker delivered behind an older open one still holds its
   queue slot, and is written with depth -1 (an open tracker's depth is
   never negative). *)
let header_len = 9

let export t =
  let w = t.cfg.window in
  let per_entry = 6 + (2 * w) in
  let queued = t.tracker_count in
  let per_tracker = 4 + w in
  let out =
    Array.make (header_len + (t.entries * per_entry) + (queued * per_tracker)) 0
  in
  out.(0) <- 1;
  out.(1) <- t.cfg.log2_sets;
  out.(2) <- t.cfg.ways;
  out.(3) <- w;
  out.(4) <- t.cfg.max_conf;
  out.(5) <- t.cfg.conf_threshold;
  out.(6) <- t.cfg.select_uops;
  out.(7) <- t.clock;
  out.(8) <- queued;
  let p = ref header_len in
  for e = 0 to t.entries - 1 do
    out.(!p) <- t.tag.(e);
    out.(!p + 1) <- t.merge.(e);
    out.(!p + 2) <- t.conf.(e);
    out.(!p + 3) <- t.lru.(e);
    out.(!p + 4) <- t.len_t.(e);
    out.(!p + 5) <- t.len_nt.(e);
    Array.blit t.path_t.(e) 0 out (!p + 6) w;
    Array.blit t.path_nt.(e) 0 out (!p + 6 + w) w;
    p := !p + per_entry
  done;
  for i = 0 to queued - 1 do
    let tk = t.trackers.((t.tracker_head + i) mod max_trackers) in
    out.(!p) <- tk.tr_branch;
    out.(!p + 1) <- (if tk.tr_taken then 1 else 0);
    out.(!p + 2) <- (if tk.tr_live then tk.tr_depth else -1);
    out.(!p + 3) <- tk.tr_len;
    Array.blit tk.tr_path 0 out (!p + 4) w;
    p := !p + per_tracker
  done;
  out

let import t snap =
  let fail msg = invalid_arg ("Mpt.import: " ^ msg) in
  let w = t.cfg.window in
  if Array.length snap < header_len then fail "truncated header";
  if snap.(0) <> 1 then fail "unknown version";
  if
    snap.(1) <> t.cfg.log2_sets || snap.(2) <> t.cfg.ways || snap.(3) <> w
    || snap.(4) <> t.cfg.max_conf
    || snap.(5) <> t.cfg.conf_threshold
    || snap.(6) <> t.cfg.select_uops
  then fail "geometry mismatch";
  let queued = snap.(8) in
  if queued < 0 || queued > max_trackers then
    fail "tracker count out of range";
  let per_entry = 6 + (2 * w) in
  let per_tracker = 4 + w in
  if
    Array.length snap
    <> header_len + (t.entries * per_entry) + (queued * per_tracker)
  then fail "length mismatch";
  t.clock <- snap.(7);
  let p = ref header_len in
  for e = 0 to t.entries - 1 do
    t.tag.(e) <- snap.(!p);
    t.merge.(e) <- snap.(!p + 1);
    t.conf.(e) <- snap.(!p + 2);
    t.lru.(e) <- snap.(!p + 3);
    t.len_t.(e) <- snap.(!p + 4);
    t.len_nt.(e) <- snap.(!p + 5);
    if t.len_t.(e) < 0 || t.len_t.(e) > w || t.len_nt.(e) < 0 || t.len_nt.(e) > w
    then fail "path length out of range";
    Array.blit snap (!p + 6) t.path_t.(e) 0 w;
    Array.blit snap (!p + 6 + w) t.path_nt.(e) 0 w;
    p := !p + per_entry
  done;
  t.tracker_head <- 0;
  t.tracker_count <- queued;
  for i = 0 to max_trackers - 1 do
    t.trackers.(i).tr_live <- false
  done;
  for i = 0 to queued - 1 do
    let tk = t.trackers.(i) in
    tk.tr_branch <- snap.(!p);
    tk.tr_taken <- snap.(!p + 1) <> 0;
    tk.tr_depth <- snap.(!p + 2);
    tk.tr_live <- tk.tr_depth >= 0;
    tk.tr_len <- snap.(!p + 3);
    (* An open tracker has room left; a delivered one may be full. *)
    if tk.tr_len < 0 || tk.tr_len > w || (tk.tr_live && tk.tr_len = w) then
      fail "tracker length out of range";
    Array.blit snap (!p + 4) tk.tr_path 0 w;
    p := !p + per_tracker
  done
