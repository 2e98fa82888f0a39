(** Fowlkes–Mallows comparison of two hierarchical clusterings
    (paper §III-C, ref [17]).

    For each cut level k, B_k ∈ [0, 1] measures the agreement of the
    two k-cluster flat clusterings (1 = identical). The paper uses a
    single scalar "B-score" as the ranking-table sort key: we take the
    mean of B_k over k = 2 .. n−1, the summary Fowlkes & Mallows plot.
    Lower B-score = the fault changed the clustering structure more. *)

(** [bk a b ~k] — the Fowlkes–Mallows index of the two dendrograms cut
    at [k] clusters. The dendrograms must have the same leaf count.
    By convention returns 1.0 when either [Pk] or [Qk] is zero (both
    cuts are all-singletons there, carrying no information). *)
val bk : Linkage.t -> Linkage.t -> k:int -> float

(** [bk_of_assignments x y] — Fowlkes–Mallows of two flat clusterings
    given as leaf→cluster arrays of equal length. *)
val bk_of_assignments : int array -> int array -> float

(** [score a b] — mean B_k over k = 2 .. n−1 (1.0 when n < 3), summed
    in increasing k. O(n²): every cut comes from one union-find replayed
    over the merge sequence, and each B_k from an O(n) count of leaf
    pairs. *)
val score : Linkage.t -> Linkage.t -> float

(** [series a b] — [(k, B_k)] for k = 2 .. n−1. *)
val series : Linkage.t -> Linkage.t -> (int * float) list
