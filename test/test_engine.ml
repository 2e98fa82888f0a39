(* Engine + memo tests: the parallel engine must be byte-identical to
   the sequential one across the bundled workloads, and the NLR summary
   cache must hit without ever changing a result. *)

open Difftrace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module F = Difftrace_filter.Filter
module A = Difftrace_fca.Attributes
module Linkage = Difftrace_cluster.Linkage
module Odd_even = Difftrace_workloads.Odd_even
module Ilcs = Difftrace_workloads.Ilcs

let par4 = Engine.parallel ~domains:4 ()

let oe16_normal =
  lazy (fst (Odd_even.run ~np:16 ~fault:Fault.No_fault ())).R.traces

let oe16_swap =
  lazy
    (fst
       (Odd_even.run ~np:16
          ~fault:(Fault.Swap_send_recv { rank = 5; after_iter = 7 })
          ()))
      .R.traces

let ilcs_normal =
  lazy (fst (Ilcs.run ~np:4 ~workers:2 ~fault:Fault.No_fault ())).R.traces

let ilcs_faulty =
  lazy
    (fst
       (Ilcs.run ~np:4 ~workers:2
          ~fault:(Fault.No_critical { rank = 2; thread = 1 })
          ()))
      .R.traces

(* ------------------------------------------------------------------ *)
(* Engine.init semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_init_parity () =
  let f i = (i * 37) mod 11 in
  List.iter
    (fun n ->
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d" n)
        (Array.init n f) (Engine.init par4 n f))
    [ 0; 1; 2; 7; 64; 1000 ]

let test_init_exception () =
  (* the lowest failing index wins, whatever the schedule did *)
  Alcotest.check_raises "first exception rethrown" (Failure "boom7")
    (fun () ->
      ignore
        (Engine.init par4 64 (fun i ->
             if i >= 7 then failwith (Printf.sprintf "boom%d" i) else i)))

let test_map () =
  let arr = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "map = Array.map"
    (Array.map (fun x -> x * x) arr)
    (Engine.map par4 (fun x -> x * x) arr)

let test_of_jobs () =
  Alcotest.(check string) "1 job is sequential" "sequential"
    (Engine.to_string (Engine.of_jobs 1));
  Alcotest.(check string) "4 jobs" "parallel:4"
    (Engine.to_string (Engine.of_jobs 4));
  (match Engine.of_jobs 0 with
  | Engine.Parallel { domains } ->
    Alcotest.(check bool) "auto-detect gives >= 1 domain" true (domains >= 1)
  | Engine.Sequential -> Alcotest.fail "of_jobs 0 should auto-parallelize")

let test_string_roundtrip () =
  Alcotest.(check bool) "seq" true
    (Engine.of_string "seq" = Engine.Sequential);
  Alcotest.(check bool) "par:3" true
    (Engine.of_string "par:3" = Engine.Parallel { domains = 3 });
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Engine.to_string e)
        true
        (Engine.of_string (Engine.to_string e) = e))
    [ Engine.Sequential; par4; Engine.Parallel { domains = 1 } ];
  (match Engine.of_string "bogus" with
  | _ -> Alcotest.fail "of_string should reject bogus"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Config builders                                                     *)
(* ------------------------------------------------------------------ *)

let test_config_builders () =
  let c =
    Config.default
    |> Config.with_k 50
    |> Config.with_linkage Linkage.Average
    |> Config.with_engine par4
    |> Config.with_attrs { A.granularity = A.Double; freq_mode = A.Log10 }
  in
  Alcotest.(check int) "with_k" 50 c.Config.k;
  Alcotest.(check bool) "with_linkage" true (c.Config.linkage = Linkage.Average);
  Alcotest.(check bool) "with_engine" true (c.Config.engine = par4);
  (* the engine is an execution detail: not part of the config name *)
  Alcotest.(check string) "name ignores engine"
    "11.mpiall.K50 / doub.log10 / average" (Config.name c);
  Alcotest.(check bool) "default is sequential" true
    (Config.default.Config.engine = Engine.Sequential)

(* ------------------------------------------------------------------ *)
(* Parallel pipeline == sequential pipeline, byte for byte             *)
(* ------------------------------------------------------------------ *)

let check_comparison_identical name config ~normal ~faulty =
  let cs = Pipeline.compare_runs config ~normal ~faulty in
  let cp =
    Pipeline.compare_runs (Config.with_engine par4 config) ~normal ~faulty
  in
  Alcotest.(check (array string))
    (name ^ ": labels") cs.Pipeline.normal.Pipeline.labels
    cp.Pipeline.normal.Pipeline.labels;
  Alcotest.(check bool)
    (name ^ ": JSM matrices bit-identical") true
    (cs.Pipeline.normal.Pipeline.jsm = cp.Pipeline.normal.Pipeline.jsm
    && cs.Pipeline.faulty.Pipeline.jsm = cp.Pipeline.faulty.Pipeline.jsm
    && cs.Pipeline.jsm_d = cp.Pipeline.jsm_d);
  Alcotest.(check bool)
    (name ^ ": B-score bit-identical") true
    (cs.Pipeline.bscore = cp.Pipeline.bscore);
  Alcotest.(check bool)
    (name ^ ": suspect ranking identical") true
    (cs.Pipeline.suspects = cp.Pipeline.suspects);
  Alcotest.(check string)
    (name ^ ": dendrogram identical")
    (Pipeline.dendrogram cs.Pipeline.faulty)
    (Pipeline.dendrogram cp.Pipeline.faulty);
  let render c =
    match Pipeline.find_diffnlr c (fst c.Pipeline.suspects.(0)) with
    | Ok d -> Difftrace_diff.Diffnlr.render d
    | Error e -> Alcotest.fail (Pipeline.lookup_error_to_string e)
  in
  Alcotest.(check string) (name ^ ": diffNLR identical") (render cs) (render cp)

let test_parallel_identical_oddeven () =
  check_comparison_identical "oddeven16" Config.default
    ~normal:(Lazy.force oe16_normal) ~faulty:(Lazy.force oe16_swap)

let test_parallel_identical_ilcs () =
  let config =
    Config.default
    |> Config.with_filter
         (F.make [ F.Mpi_all; F.Omp_critical; F.Custom "CPU_Exec|memcpy" ])
    |> Config.with_attrs { A.granularity = A.Single; freq_mode = A.Actual }
  in
  check_comparison_identical "ilcs4x2" config ~normal:(Lazy.force ilcs_normal)
    ~faulty:(Lazy.force ilcs_faulty)

let test_parallel_identical_analysis () =
  (* analyze-level check: NLR summaries and the shared loop table *)
  let ts = Lazy.force oe16_normal in
  let a_s = Pipeline.analyze Config.default ts in
  let a_p = Pipeline.analyze (Config.with_engine par4 Config.default) ts in
  let strings a =
    Array.map
      (fun (nlr, _) ->
        String.concat ";" (Difftrace_nlr.Nlr.to_strings a.Pipeline.symtab nlr))
      a.Pipeline.nlrs
  in
  Alcotest.(check (array string)) "NLR summaries identical" (strings a_s)
    (strings a_p);
  Alcotest.(check int) "same loop-table size"
    (Difftrace_nlr.Nlr.Loop_table.size a_s.Pipeline.loop_table)
    (Difftrace_nlr.Nlr.Loop_table.size a_p.Pipeline.loop_table)

(* ------------------------------------------------------------------ *)
(* Hot paths against their reference implementations, per engine       *)
(* ------------------------------------------------------------------ *)

module Nlr = Difftrace_nlr.Nlr
module Jsm = Difftrace_cluster.Jsm
module Symtab = Difftrace_trace.Symtab
module Trace_set = Difftrace_trace.Trace_set
module Lulesh = Difftrace_workloads.Lulesh

let lulesh fault =
  lazy
    (Lulesh.run ~np:4 ~level:Difftrace_parlot.Tracer.All_images ~fault ())
      .R.traces

let lulesh_normal = lulesh Fault.No_fault

let lulesh_skip =
  lulesh (Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" })

(* Replays a comparison through the reference remap, NLR kernel,
   memo key and B-score, and checks that every result is identical:
   the shared symbol table, each summary with the shared loop table,
   the memo's key set and the B-score. *)
let check_against_oracles name config ~normal ~faulty =
  let memo = Memo.create () in
  let c = Pipeline.compare_runs ~memo config ~normal ~faulty in
  let k = config.Config.k and repeats = config.Config.repeats in
  let symtab = Symtab.create () and table = Nlr.Loop_table.create () in
  let keys = ref [] in
  let replay ts (a : Pipeline.analysis) =
    let filtered = F.apply_set config.Config.filter ts in
    let own = Trace_set.symtab filtered in
    Array.iteri
      (fun i tr ->
        let ids = Oracles.remap_calls ~shared:symtab ~own tr in
        let key = Oracles.memo_key ~ids ~k ~repeats in
        let local = Nlr.Loop_table.create () in
        let nlr =
          Nlr.reintern ~from:local ~into:table
            (Oracles.Nlr.of_ids ~table:local ~k ~repeats ids)
        in
        (* identical traces share one memo entry *)
        if not (List.mem key !keys) then keys := key :: !keys;
        Alcotest.(check bool)
          (Printf.sprintf "%s: summary of %s" name a.Pipeline.labels.(i))
          true
          (fst a.Pipeline.nlrs.(i) = nlr))
      (Trace_set.traces filtered)
  in
  replay normal c.Pipeline.normal;
  replay faulty c.Pipeline.faulty;
  Alcotest.(check (array string))
    (name ^ ": shared symbol table") (Symtab.names symtab)
    (Symtab.names (Memo.symtab memo));
  let bodies t =
    Array.init (Nlr.Loop_table.size t) (Nlr.Loop_table.body t)
  in
  Alcotest.(check bool)
    (name ^ ": shared loop table") true
    (bodies table = bodies (Memo.loop_table memo));
  Alcotest.(check (list string))
    (name ^ ": memo keys")
    (List.sort compare !keys)
    (List.sort compare (Memo.fold memo ~init:[] ~f:(fun key _ acc -> key :: acc)));
  let jn, jf = Jsm.align c.Pipeline.normal.Pipeline.jsm c.Pipeline.faulty.Pipeline.jsm in
  let cluster j =
    Linkage.cluster config.Config.linkage (Jsm.rows (Jsm.to_distance j))
  in
  Alcotest.(check bool)
    (name ^ ": B-score bit-identical to the dense reference") true
    (c.Pipeline.bscore = Oracles.Bscore.score (cluster jn) (cluster jf))

let test_oracles_per_engine () =
  List.iter
    (fun engine ->
      let with_engine = Config.with_engine engine in
      let tag = Engine.to_string engine in
      check_against_oracles ("oddeven16/" ^ tag) (with_engine Config.default)
        ~normal:(Lazy.force oe16_normal) ~faulty:(Lazy.force oe16_swap);
      check_against_oracles ("lulesh4/" ^ tag)
        (with_engine (Config.with_filter (F.of_spec "11.all") Config.default))
        ~normal:(Lazy.force lulesh_normal) ~faulty:(Lazy.force lulesh_skip))
    [ Engine.Sequential; Engine.parallel ~domains:2 () ]

(* ------------------------------------------------------------------ *)
(* Memo cache: hits on the autotune grid, never a different answer     *)
(* ------------------------------------------------------------------ *)

let test_autotune_cache_hit_rate () =
  let r =
    match
      Autotune.search
        ~normal:(Lazy.force oe16_normal)
        ~faulty:(Lazy.force oe16_swap)
        ()
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Session.error_to_string e)
  in
  let c = r.Autotune.cache in
  Alcotest.(check bool) "summaries were reused" true (c.Memo.hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hit rate %.2f above 0.5" (Memo.hit_rate c))
    true
    (Memo.hit_rate c > 0.5)

let test_autotune_memo_correctness () =
  let normal = Lazy.force oe16_normal and faulty = Lazy.force oe16_swap in
  let with_memo =
    match Autotune.search ~normal ~faulty () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Session.error_to_string e)
  in
  (* force every evaluation to miss: a fresh memo per configuration *)
  let sweep_no_reuse =
    List.map
      (fun cand ->
        Autotune.evaluate cand.Autotune.config ~normal ~faulty)
      with_memo.Autotune.ranked
  in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same config" (Config.name a.Autotune.config)
        (Config.name b.Autotune.config);
      Alcotest.(check (float 0.0)) "same bscore" b.Autotune.bscore
        a.Autotune.bscore;
      Alcotest.(check (option string)) "same top suspect" b.Autotune.top_suspect
        a.Autotune.top_suspect)
    with_memo.Autotune.ranked sweep_no_reuse

let test_memo_cold_equals_plain () =
  (* the first compare_runs against a fresh memo is byte-identical to a
     memo-less one, diffNLR rendering included *)
  let normal = Lazy.force oe16_normal and faulty = Lazy.force oe16_swap in
  let plain = Pipeline.compare_runs Config.default ~normal ~faulty in
  let memo = Memo.create () in
  let cold = Pipeline.compare_runs ~memo Config.default ~normal ~faulty in
  let render c =
    match Pipeline.find_diffnlr c "5" with
    | Ok d -> Difftrace_diff.Diffnlr.render d
    | Error e -> Alcotest.fail (Pipeline.lookup_error_to_string e)
  in
  Alcotest.(check bool) "suspects identical" true
    (plain.Pipeline.suspects = cold.Pipeline.suspects);
  Alcotest.(check string) "diffNLR identical" (render plain) (render cold);
  let after_cold = Memo.stats memo in
  (* warm reuse keeps every analysis result stable *)
  let warm = Pipeline.compare_runs ~memo Config.default ~normal ~faulty in
  Alcotest.(check bool) "warm bscore identical" true
    (plain.Pipeline.bscore = warm.Pipeline.bscore);
  Alcotest.(check bool) "warm suspects identical" true
    (plain.Pipeline.suspects = warm.Pipeline.suspects);
  (* the warm pass looks up all 32 summaries (16 traces x 2 runs) and
     must find every one of them *)
  let s = Memo.stats memo in
  Alcotest.(check int) "warm pass misses nothing" after_cold.Memo.misses
    s.Memo.misses;
  Alcotest.(check int) "warm pass fully cached" (after_cold.Memo.hits + 32)
    s.Memo.hits

let test_memo_rejects_conflicting_tables () =
  let memo = Memo.create () in
  let ts = Lazy.force oe16_normal in
  match
    Pipeline.analyze ~symtab:(Difftrace_trace.Symtab.create ()) ~memo
      Config.default ts
  with
  | _ -> Alcotest.fail "analyze should reject memo + explicit symtab"
  | exception Invalid_argument _ -> ()

let test_hit_rate_degenerate () =
  (* regression: an all-miss (or untouched) cache once divided by zero *)
  Alcotest.(check (float 1e-9)) "empty stats" 0.0
    (Memo.hit_rate { Memo.hits = 0; misses = 0 });
  Alcotest.(check (float 1e-9)) "all misses" 0.0
    (Memo.hit_rate { Memo.hits = 0; misses = 7 });
  Alcotest.(check (float 1e-9)) "all hits" 1.0
    (Memo.hit_rate { Memo.hits = 5; misses = 0 })

(* the digit writer must hash the very bytes [string_of_int] spelled,
   since persisted store entries are filed under these keys *)
let prop_memo_key_digest =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"Memo.key digest unchanged"
       QCheck2.Gen.(
         triple
           (array_size (int_range 0 50)
              (oneof [ return 0; int_range 0 20; int_range 0 max_int; return max_int ]))
           (int_range 1 100) (int_range 2 9))
       (fun (ids, k, repeats) ->
         let m = Memo.create () in
         let nlr = Nlr.of_ids ~table:(Memo.loop_table m) ids in
         Memo.add m (Memo.key ~ids ~k ~repeats) nlr;
         Memo.fold m ~init:[] ~f:(fun key _ acc -> key :: acc)
         = [ Oracles.memo_key ~ids ~k ~repeats ]))

let () =
  Alcotest.run "engine"
    [ ( "engine",
        [ Alcotest.test_case "init parity" `Quick test_init_parity;
          Alcotest.test_case "exception order" `Quick test_init_exception;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "of_jobs" `Quick test_of_jobs;
          Alcotest.test_case "of_string roundtrip" `Quick test_string_roundtrip ] );
      ( "config",
        [ Alcotest.test_case "builders" `Quick test_config_builders ] );
      ( "parity",
        [ Alcotest.test_case "odd/even byte-identical" `Quick
            test_parallel_identical_oddeven;
          Alcotest.test_case "ILCS byte-identical" `Quick
            test_parallel_identical_ilcs;
          Alcotest.test_case "analysis internals identical" `Quick
            test_parallel_identical_analysis ] );
      ( "oracles",
        [ Alcotest.test_case "NLR, remap, memo key and B-score" `Quick
            test_oracles_per_engine ] );
      ( "memo",
        [ Alcotest.test_case "autotune hit rate > 50%" `Quick
            test_autotune_cache_hit_rate;
          Alcotest.test_case "memo never changes the ranking" `Quick
            test_autotune_memo_correctness;
          Alcotest.test_case "cold cache == no cache" `Quick
            test_memo_cold_equals_plain;
          Alcotest.test_case "memo + explicit tables rejected" `Quick
            test_memo_rejects_conflicting_tables;
          Alcotest.test_case "hit rate degenerate cases" `Quick
            test_hit_rate_degenerate;
          prop_memo_key_digest ] ) ]
