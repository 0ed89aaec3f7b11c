(** The digest of the code whose output the persistent cache stores. *)

val value : string
(** MD5 (hex) over the sorted (path, file digest) pairs of every
    [.ml]/[.mli] of the libraries [dmp_experiments] is built from: ir,
    cfg, exec, predictor, profile, sampling, core, mpp, uarch,
    transform, workload and experiments itself. Generated at build
    time, so it changes with any edit to those sources. *)
