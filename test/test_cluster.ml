open Difftrace_cluster
module Context = Difftrace_fca.Context

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Linkage                                                             *)
(* ------------------------------------------------------------------ *)

(* hand-checkable 4-point line: 0-1 close, 2-3 close, groups far *)
let line_matrix =
  [| [| 0.; 1.; 8.; 9. |];
     [| 1.; 0.; 7.; 8. |];
     [| 8.; 7.; 0.; 1. |];
     [| 9.; 8.; 1.; 0. |] |]

let test_single_linkage_heights () =
  let t = Linkage.cluster Linkage.Single line_matrix in
  let heights = Array.to_list (Array.map (fun m -> m.Linkage.dist) t.Linkage.merges) in
  Alcotest.(check (list (float 1e-9))) "merge heights" [ 1.0; 1.0; 7.0 ] heights

let test_complete_linkage_heights () =
  let t = Linkage.cluster Linkage.Complete line_matrix in
  let heights = Array.to_list (Array.map (fun m -> m.Linkage.dist) t.Linkage.merges) in
  Alcotest.(check (list (float 1e-9))) "merge heights" [ 1.0; 1.0; 9.0 ] heights

let test_average_linkage_heights () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let heights = Array.to_list (Array.map (fun m -> m.Linkage.dist) t.Linkage.merges) in
  (* between-group average of {8,9,7,8} = 8 *)
  Alcotest.(check (list (float 1e-9))) "merge heights" [ 1.0; 1.0; 8.0 ] heights

let test_ward_two_points () =
  let m = [| [| 0.; 2. |]; [| 2.; 0. |] |] in
  let t = Linkage.cluster Linkage.Ward m in
  Alcotest.(check int) "one merge" 1 (Array.length t.Linkage.merges);
  Alcotest.(check (float 1e-9)) "height is the distance" 2.0
    t.Linkage.merges.(0).Linkage.dist

let test_merge_sizes () =
  let t = Linkage.cluster Linkage.Ward line_matrix in
  let final = t.Linkage.merges.(Array.length t.Linkage.merges - 1) in
  Alcotest.(check int) "last merge holds all leaves" 4 final.Linkage.size

let test_cut_k () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  Alcotest.(check (array int)) "k=2 groups pairs" [| 0; 0; 1; 1 |] (Linkage.cut_k t 2);
  Alcotest.(check (array int)) "k=4 all singletons" [| 0; 1; 2; 3 |] (Linkage.cut_k t 4);
  Alcotest.(check (array int)) "k=1 one cluster" [| 0; 0; 0; 0 |] (Linkage.cut_k t 1);
  Alcotest.check_raises "k=0 invalid" (Invalid_argument "Linkage.cut_k") (fun () ->
      ignore (Linkage.cut_k t 0))

let test_cut_height () =
  let t = Linkage.cluster Linkage.Single line_matrix in
  Alcotest.(check (array int)) "h=2 groups pairs" [| 0; 0; 1; 1 |]
    (Linkage.cut_height t 2.0);
  Alcotest.(check (array int)) "h=10 everything" [| 0; 0; 0; 0 |]
    (Linkage.cut_height t 10.0);
  Alcotest.(check (array int)) "h=0.5 nothing merged" [| 0; 1; 2; 3 |]
    (Linkage.cut_height t 0.5)

let test_cophenetic () =
  let t = Linkage.cluster Linkage.Single line_matrix in
  let c = Linkage.cophenetic t in
  Alcotest.(check (float 1e-9)) "pair 0-1" 1.0 c.(0).(1);
  Alcotest.(check (float 1e-9)) "cross group" 7.0 c.(0).(3);
  Alcotest.(check (float 1e-9)) "diagonal" 0.0 c.(2).(2)

let test_validation () =
  Alcotest.check_raises "not square" (Invalid_argument "Linkage.cluster: not square")
    (fun () -> ignore (Linkage.cluster Linkage.Single [| [| 0.; 1. |] |]));
  Alcotest.check_raises "asymmetric" (Invalid_argument "Linkage.cluster: not symmetric")
    (fun () ->
      ignore (Linkage.cluster Linkage.Single [| [| 0.; 1. |]; [| 2.; 0. |] |]));
  Alcotest.check_raises "nonzero diagonal"
    (Invalid_argument "Linkage.cluster: nonzero diagonal") (fun () ->
      ignore (Linkage.cluster Linkage.Single [| [| 1. |] |]))

let test_method_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true
        (Linkage.method_of_string (Linkage.method_name m) = m))
    Linkage.all_methods;
  Alcotest.(check int) "seven methods" 7 (List.length Linkage.all_methods)

let dist_gen =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* cells = list_repeat (n * n) (float_bound_inclusive 10.0) in
    let a = Array.of_list cells in
    let m =
      Array.init n (fun i ->
          Array.init n (fun j ->
              if i = j then 0.0
              else
                let x = a.((min i j * n) + max i j) in
                x +. 0.001))
    in
    return m)

let prop_all_methods_terminate =
  qtest "every linkage produces n-1 nondecreasing-size merges" dist_gen (fun m ->
      List.for_all
        (fun meth ->
          let t = Linkage.cluster meth m in
          Array.length t.Linkage.merges = Array.length m - 1
          && t.Linkage.merges.(Array.length t.Linkage.merges - 1).Linkage.size
             = Array.length m)
        Linkage.all_methods)

let prop_single_below_complete =
  qtest "single-linkage heights <= complete-linkage heights" dist_gen (fun m ->
      let hs meth =
        Array.map (fun x -> x.Linkage.dist) (Linkage.cluster meth m).Linkage.merges
      in
      let s = hs Linkage.Single and c = hs Linkage.Complete in
      (* compare the final (root) heights: max pairwise <= is not
         guaranteed stepwise, but the root is *)
      s.(Array.length s - 1) <= c.(Array.length c - 1) +. 1e-9)

let prop_cut_k_counts =
  qtest "cut_k yields exactly k clusters"
    QCheck2.Gen.(pair dist_gen (int_range 1 8))
    (fun (m, k) ->
      let n = Array.length m in
      let k = min k n in
      let t = Linkage.cluster Linkage.Average m in
      let a = Linkage.cut_k t k in
      let distinct = List.sort_uniq Int.compare (Array.to_list a) in
      List.length distinct = k)

(* ------------------------------------------------------------------ *)
(* Dendrogram                                                          *)
(* ------------------------------------------------------------------ *)

let test_dendrogram_structure () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let tree = Dendrogram.of_linkage t in
  Alcotest.(check (float 1e-9)) "root height" 8.0 (Dendrogram.height tree);
  let order = Dendrogram.leaf_order tree in
  Alcotest.(check int) "all leaves" 4 (List.length order);
  Alcotest.(check (list int)) "sorted leaves" [ 0; 1; 2; 3 ]
    (List.sort Int.compare order);
  (* pairs {0,1} and {2,3} must be adjacent in the leaf order *)
  let pos x = Option.get (List.find_index (Int.equal x) order) in
  Alcotest.(check int) "0 next to 1" 1 (abs (pos 0 - pos 1));
  Alcotest.(check int) "2 next to 3" 1 (abs (pos 2 - pos 3))

let test_dendrogram_single_leaf () =
  let t = Linkage.cluster Linkage.Single [| [| 0.0 |] |] in
  let tree = Dendrogram.of_linkage t in
  Alcotest.(check (list int)) "one leaf" [ 0 ] (Dendrogram.leaf_order tree);
  Alcotest.(check (float 1e-9)) "zero height" 0.0 (Dendrogram.height tree)

let test_dendrogram_render () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let s = Dendrogram.render ~labels:[| "a"; "b"; "c"; "d" |] t in
  let contains sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "labels shown" true
    (contains "a" && contains "d");
  Alcotest.(check bool) "root height annotated" true (contains "[8.00]")

let prop_dendrogram_leaves_permutation =
  qtest "dendrogram leaf order is a permutation of the leaves" dist_gen (fun m ->
      let t = Linkage.cluster Linkage.Ward m in
      let order = Dendrogram.leaf_order (Dendrogram.of_linkage t) in
      List.sort Int.compare order = List.init (Array.length m) (fun i -> i))

let prop_dendrogram_root_height_is_last_merge =
  qtest "dendrogram root height = final merge height" dist_gen (fun m ->
      let t = Linkage.cluster Linkage.Average m in
      let expected =
        t.Linkage.merges.(Array.length t.Linkage.merges - 1).Linkage.dist
      in
      Float.abs (Dendrogram.height (Dendrogram.of_linkage t) -. expected) < 1e-9)

(* ------------------------------------------------------------------ *)
(* B-score                                                             *)
(* ------------------------------------------------------------------ *)

let test_bk_identical () =
  Alcotest.(check (float 1e-9)) "identical clusterings" 1.0
    (Bscore.bk_of_assignments [| 0; 0; 1; 1 |] [| 1; 1; 0; 0 |])

let test_bk_disjoint () =
  Alcotest.(check (float 1e-9)) "orthogonal clusterings" 0.0
    (Bscore.bk_of_assignments [| 0; 0; 1; 1 |] [| 0; 1; 0; 1 |])

let test_bk_all_singletons () =
  Alcotest.(check (float 1e-9)) "singletons carry no information" 1.0
    (Bscore.bk_of_assignments [| 0; 1; 2 |] [| 2; 1; 0 |])

let test_score_self () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  Alcotest.(check (float 1e-9)) "B(x,x) = 1" 1.0 (Bscore.score t t)

let test_score_differs () =
  let t1 = Linkage.cluster Linkage.Average line_matrix in
  (* a matrix grouping 0-2 and 1-3 instead *)
  let m2 =
    [| [| 0.; 8.; 1.; 9. |];
       [| 8.; 0.; 9.; 1. |];
       [| 1.; 9.; 0.; 8. |];
       [| 9.; 1.; 8.; 0. |] |]
  in
  let t2 = Linkage.cluster Linkage.Average m2 in
  let s = Bscore.score t1 t2 in
  Alcotest.(check bool) "restructured clustering scores below 1" true (s < 1.0);
  Alcotest.(check bool) "and is nonnegative" true (s >= 0.0)

let test_series_range () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let series = Bscore.series t t in
  Alcotest.(check (list int)) "k ranges 2..n-1" [ 2; 3 ] (List.map fst series)

let test_bk_mismatch () =
  Alcotest.check_raises "leaf count mismatch"
    (Invalid_argument "Bscore: leaf count mismatch") (fun () ->
      ignore (Bscore.bk_of_assignments [| 0 |] [| 0; 1 |]))

let prop_bscore_bounds =
  qtest "B-score in [0, 1] and B(x,x)=1"
    QCheck2.Gen.(pair dist_gen dist_gen)
    (fun (m1, m2) ->
      let n = min (Array.length m1) (Array.length m2) in
      let shrink m = Array.map (fun r -> Array.sub r 0 n) (Array.sub m 0 n) in
      let t1 = Linkage.cluster Linkage.Ward (shrink m1) in
      let t2 = Linkage.cluster Linkage.Ward (shrink m2) in
      let s = Bscore.score t1 t2 in
      s >= -1e-9 && s <= 1.0 +. 1e-9 && Bscore.score t1 t1 = 1.0)

(* the sparse contingency count against the dense reference: exact
   float equality, no tolerance *)

let assignments_gen =
  QCheck2.Gen.(
    let* n = int_range 1 200 in
    let labels = let* k = int_range 1 n in list_repeat n (int_range 0 (k - 1)) in
    pair (map Array.of_list labels) (map Array.of_list labels))

let prop_bk_matches_dense =
  qtest "bk_of_assignments = dense reference, bit for bit" ~count:500
    assignments_gen (fun (x, y) ->
      Bscore.bk_of_assignments x y = Oracles.Bscore.bk_of_assignments x y)

(* two distance matrices over the same n points in the plane *)
let points_dist_gen =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let matrix =
      let* pts = list_repeat n (pair (float_bound_inclusive 10.0) (float_bound_inclusive 10.0)) in
      let p = Array.of_list pts in
      return
        (Array.init n (fun i ->
             Array.init n (fun j ->
                 let (xi, yi), (xj, yj) = (p.(i), p.(j)) in
                 Float.hypot (xi -. xj) (yi -. yj))))
    in
    pair matrix matrix)

let prop_score_matches_dense =
  qtest "score = dense reference score, bit for bit" ~count:200
    QCheck2.Gen.(pair points_dist_gen (oneofl Linkage.all_methods))
    (fun ((m1, m2), meth) ->
      let t1 = Linkage.cluster meth m1 and t2 = Linkage.cluster meth m2 in
      Bscore.score t1 t2 = Oracles.Bscore.score t1 t2
      && Bscore.series t1 t2 = Oracles.Bscore.series t1 t2)

(* ------------------------------------------------------------------ *)
(* JSM                                                                 *)
(* ------------------------------------------------------------------ *)

let ctx l = Context.of_attr_sets l

let test_jsm_of_context () =
  let j =
    Jsm.of_context
      (ctx [ ("a", [ "x"; "y" ]); ("b", [ "x"; "y" ]); ("c", [ "z" ]) ])
  in
  Alcotest.(check int) "size" 3 (Jsm.size j);
  Alcotest.(check (float 1e-9)) "identical objects" 1.0 (Jsm.get j 0 1);
  Alcotest.(check (float 1e-9)) "disjoint objects" 0.0 (Jsm.get j 0 2);
  Alcotest.(check (float 1e-9)) "diagonal" 1.0 (Jsm.get j 2 2)

let test_jsm_diff_aligns_labels () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "x" ]); ("t2", [ "y" ]) ]) in
  let b = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t2", [ "x" ]) ]) in
  let d = Jsm.diff a b in
  Alcotest.(check (array string)) "common labels only" [| "t0"; "t2" |] d.Jsm.labels;
  (* a: J(t0,t2)=0; b: J(t0,t2)=1 -> |diff| = 1 *)
  Alcotest.(check (float 1e-9)) "restructured pair" 1.0 (Jsm.get d 0 1);
  Alcotest.(check (float 1e-9)) "row change" 1.0 (Jsm.row_change d 0)

let test_jsm_diff_self_zero () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "y" ]) ]) in
  let d = Jsm.diff a a in
  Alcotest.(check (float 1e-9)) "self diff zero" 0.0 (Jsm.row_change d 0)

let test_jsm_to_distance () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "x" ]) ]) in
  let d = Jsm.to_distance a in
  Alcotest.(check (float 1e-9)) "distance = 1 - sim" 0.0 (Jsm.get d 0 1);
  Alcotest.(check (float 1e-9)) "self distance" 0.0 (Jsm.get d 0 0)

let test_jsm_heatmap () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "y" ]) ]) in
  let s = Jsm.heatmap a in
  Alcotest.(check bool) "renders" true (String.length s > 20)

let test_jsm_align_partial_overlap () =
  (* alignment restricted to the label intersection, in first-matrix
     order — the hand-assembled records exercise [align] away from the
     [of_context] invariants *)
  let a =
    Jsm.of_dense ~labels:[| "a"; "b"; "c" |]
      [| [| 1.0; 0.5; 0.2 |]; [| 0.5; 1.0; 0.4 |]; [| 0.2; 0.4; 1.0 |] |]
  in
  let b =
    Jsm.of_dense ~labels:[| "c"; "b"; "d" |]
      [| [| 1.0; 0.1; 0.0 |]; [| 0.1; 1.0; 0.3 |]; [| 0.0; 0.3; 1.0 |] |]
  in
  let a', b' = Jsm.align a b in
  Alcotest.(check (array string)) "intersection, a-order" [| "b"; "c" |]
    a'.Jsm.labels;
  Alcotest.(check (float 1e-9)) "a cell picked" 0.4 (Jsm.get a' 0 1);
  Alcotest.(check (float 1e-9)) "b cell picked (b-indices)" 0.1 (Jsm.get b' 0 1)

let test_jsm_align_ragged_rejected () =
  (* malformed matrices (the partially-failed campaign cell case) are
     diagnosed by name at construction, not as a bare out-of-bounds;
     label/dimension drift is still caught at align time *)
  Alcotest.check_raises "missing row named"
    (Invalid_argument "Jsm.of_dense: 2 labels but 1 rows")
    (fun () ->
      ignore (Jsm.of_dense ~labels:[| "a"; "b" |] [| [| 1.0; 0.0 |] |]));
  Alcotest.check_raises "short row named"
    (Invalid_argument
       "Jsm.of_dense: row 1 (label \"b\") has 1 columns, expected 2")
    (fun () ->
      ignore
        (Jsm.of_dense ~labels:[| "a"; "b" |] [| [| 1.0; 0.0 |]; [| 0.0 |] |]));
  let ok = Jsm.of_dense ~labels:[| "a"; "b" |] [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let drifted = { ok with Jsm.labels = [| "a" |] } in
  Alcotest.check_raises "label/dimension drift named"
    (Invalid_argument "Jsm.align: second matrix has 1 labels but 2 rows")
    (fun () -> ignore (Jsm.align ok drifted))

let test_jsm_diff_disjoint_labels () =
  (* no common labels: an empty (but well-formed) diff, not a crash *)
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]) ]) in
  let b = Jsm.of_context (ctx [ ("t9", [ "x" ]) ]) in
  let d = Jsm.diff a b in
  Alcotest.(check int) "empty alignment" 0 (Array.length d.Jsm.labels)

let test_jsm_empty_matrix_views () =
  (* regression: heatmap and row_change once indexed into the 0-trace
     matrix that diffing label-disjoint runs produces *)
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]) ]) in
  let b = Jsm.of_context (ctx [ ("t9", [ "x" ]) ]) in
  let d = Jsm.diff a b in
  Alcotest.(check string) "heatmap placeholder" "(no traces)\n" (Jsm.heatmap d);
  Alcotest.(check (float 1e-9)) "row change on empty" 0.0 (Jsm.row_change d 0)

let () =
  Alcotest.run "cluster"
    [ ( "linkage",
        [ Alcotest.test_case "single heights" `Quick test_single_linkage_heights;
          Alcotest.test_case "complete heights" `Quick test_complete_linkage_heights;
          Alcotest.test_case "average heights" `Quick test_average_linkage_heights;
          Alcotest.test_case "ward two points" `Quick test_ward_two_points;
          Alcotest.test_case "merge sizes" `Quick test_merge_sizes;
          Alcotest.test_case "cut_k" `Quick test_cut_k;
          Alcotest.test_case "cut_height" `Quick test_cut_height;
          Alcotest.test_case "cophenetic" `Quick test_cophenetic;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "method names" `Quick test_method_names;
          prop_all_methods_terminate;
          prop_single_below_complete;
          prop_cut_k_counts ] );
      ( "dendrogram",
        [ Alcotest.test_case "structure" `Quick test_dendrogram_structure;
          Alcotest.test_case "single leaf" `Quick test_dendrogram_single_leaf;
          Alcotest.test_case "render" `Quick test_dendrogram_render;
          prop_dendrogram_leaves_permutation;
          prop_dendrogram_root_height_is_last_merge ] );
      ( "bscore",
        [ Alcotest.test_case "identical" `Quick test_bk_identical;
          Alcotest.test_case "orthogonal" `Quick test_bk_disjoint;
          Alcotest.test_case "singleton convention" `Quick test_bk_all_singletons;
          Alcotest.test_case "score self" `Quick test_score_self;
          Alcotest.test_case "score differs" `Quick test_score_differs;
          Alcotest.test_case "series range" `Quick test_series_range;
          Alcotest.test_case "mismatch rejected" `Quick test_bk_mismatch;
          prop_bscore_bounds;
          prop_bk_matches_dense;
          prop_score_matches_dense ] );
      ( "jsm",
        [ Alcotest.test_case "of_context" `Quick test_jsm_of_context;
          Alcotest.test_case "diff aligns labels" `Quick test_jsm_diff_aligns_labels;
          Alcotest.test_case "self diff zero" `Quick test_jsm_diff_self_zero;
          Alcotest.test_case "to_distance" `Quick test_jsm_to_distance;
          Alcotest.test_case "heatmap" `Quick test_jsm_heatmap;
          Alcotest.test_case "align partial overlap" `Quick
            test_jsm_align_partial_overlap;
          Alcotest.test_case "align ragged rejected" `Quick
            test_jsm_align_ragged_rejected;
          Alcotest.test_case "diff disjoint labels" `Quick
            test_jsm_diff_disjoint_labels;
          Alcotest.test_case "empty matrix views" `Quick
            test_jsm_empty_matrix_views ] ) ]
