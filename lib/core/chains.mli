(** Chain-of-CFM-point reduction (Section 3.3.1): when one CFM point
    candidate lies on a path to another, dpred-mode always stops at the
    earlier one, so only one candidate per chain is kept — the one with
    the highest merging probability. *)

val on_path_to :
  x:Candidate.cfm_candidate -> y:Candidate.cfm_candidate -> bool

val by_merge_prob :
  Candidate.cfm_candidate list -> Candidate.cfm_candidate list
(** Stable sort by decreasing merge probability. *)

val reduce : Candidate.cfm_candidate list -> Candidate.cfm_candidate list
(** Result is sorted by decreasing merge probability and contains at
    most one candidate per chain. *)
