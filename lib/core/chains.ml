(* Chain-of-CFM-point reduction (Section 3.3.1): if a CFM point
   candidate lies on any path from the diverge branch to another CFM
   point candidate, dpred-mode would always stop at the earlier one, so
   the compiler keeps only one candidate per chain — the one with the
   highest probability of merging. *)

module Int_set = Explore.Int_set

let on_path_to ~(x : Candidate.cfm_candidate) ~(y : Candidate.cfm_candidate) =
  Int_set.mem x.Candidate.cfm_block y.Candidate.blocks_on_paths

let by_merge_prob (cfms : Candidate.cfm_candidate list) =
  List.stable_sort
    (fun (a : Candidate.cfm_candidate) b ->
      compare b.Candidate.merge_prob a.Candidate.merge_prob)
    cfms

let reduce (cfms : Candidate.cfm_candidate list) =
  let arr = Array.of_list cfms in
  let n = Array.length arr in
  (* Union-find over chain membership. *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && on_path_to ~x:arr.(i) ~y:arr.(j) then union i j
    done
  done;
  let best = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let root = find i in
    match Hashtbl.find_opt best root with
    | Some j when arr.(j).Candidate.merge_prob >= arr.(i).Candidate.merge_prob
      ->
        ()
    | Some _ | None -> Hashtbl.replace best root i
  done;
  by_merge_prob (Hashtbl.fold (fun _ i acc -> arr.(i) :: acc) best [])
