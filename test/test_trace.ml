open Difftrace_trace

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_symtab_intern () =
  let t = Symtab.create () in
  let a = Symtab.intern t "foo" in
  let b = Symtab.intern t "bar" in
  let a' = Symtab.intern t "foo" in
  Alcotest.(check int) "dense ids from 0" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "stable reintern" a a';
  Alcotest.(check int) "size" 2 (Symtab.size t);
  Alcotest.(check string) "name lookup" "foo" (Symtab.name t 0);
  Alcotest.(check (option int)) "find_opt hit" (Some 1) (Symtab.find_opt t "bar");
  Alcotest.(check (option int)) "find_opt miss" None (Symtab.find_opt t "baz");
  Alcotest.(check (array string)) "names" [| "foo"; "bar" |] (Symtab.names t);
  Alcotest.check_raises "unknown id" (Invalid_argument "Symtab.name: unknown ID")
    (fun () -> ignore (Symtab.name t 5))

let test_event_basics () =
  let t = Symtab.create () in
  let f = Symtab.intern t "f" in
  Alcotest.(check int) "id of call" f (Event.id (Event.Call f));
  Alcotest.(check int) "id of return" f (Event.id (Event.Return f));
  Alcotest.(check bool) "is_call" true (Event.is_call (Event.Call f));
  Alcotest.(check bool) "is_return" true (Event.is_return (Event.Return f));
  Alcotest.(check string) "call to_string" "f" (Event.to_string t (Event.Call f));
  Alcotest.(check string) "return to_string" "ret f"
    (Event.to_string t (Event.Return f));
  Alcotest.(check bool) "equal" true (Event.equal (Event.Call 3) (Event.Call 3));
  Alcotest.(check bool) "not equal kinds" false
    (Event.equal (Event.Call 3) (Event.Return 3))

let prop_event_codec =
  qtest "event encode/decode roundtrip"
    QCheck2.Gen.(
      let* id = int_range 0 100000 in
      let* call = bool in
      return (if call then Event.Call id else Event.Return id))
    (fun e -> Event.equal e (Event.decode (Event.encode e)))

(* shared decodes are structurally the fresh-allocating oracle's, on
   both sides of the shared table's bound *)
let prop_event_decode_oracle =
  qtest "event decode = fresh oracle decode"
    QCheck2.Gen.(
      oneof
        [ int_range (-2) 5000;
          oneofl [ 4095; 4096; 4097 ];
          int_range 0 max_int;
          int_range min_int 0 ])
    (fun n -> Event.decode n = Oracles.Event.decode n)

let mk_trace ?(pid = 0) ?(tid = 0) ?(truncated = false) evs =
  Trace.make ~pid ~tid ~truncated (Array.of_list evs)

let test_trace_call_ids () =
  let tr =
    mk_trace [ Event.Call 1; Event.Return 1; Event.Call 2; Event.Call 1; Event.Return 2 ]
  in
  Alcotest.(check (array int)) "calls only, in order" [| 1; 2; 1 |] (Trace.call_ids tr);
  Alcotest.(check int) "length counts all events" 5 (Trace.length tr);
  Alcotest.(check int) "distinct" 2 (Trace.distinct_functions tr)

let test_trace_label () =
  let tr = mk_trace ~pid:6 ~tid:4 [] in
  Alcotest.(check string) "full label" "6.4" (Trace.label tr);
  Alcotest.(check string) "short only for tid 0" "6.4" (Trace.label ~short:true tr);
  let m = mk_trace ~pid:6 ~tid:0 [] in
  Alcotest.(check string) "master short" "6" (Trace.label ~short:true m);
  Alcotest.(check string) "master full" "6.0" (Trace.label m)

let test_trace_set_ordering () =
  let ts =
    Trace_set.create (Symtab.create ())
      [ mk_trace ~pid:1 ~tid:1 []; mk_trace ~pid:0 ~tid:0 [];
        mk_trace ~pid:1 ~tid:0 []; mk_trace ~pid:0 ~tid:2 [] ]
  in
  Alcotest.(check (array string)) "sorted labels" [| "0.0"; "0.2"; "1.0"; "1.1" |]
    (Trace_set.labels ts);
  Alcotest.(check int) "cardinal" 4 (Trace_set.cardinal ts);
  Alcotest.(check (list int)) "processes" [ 0; 1 ] (Trace_set.processes ts)

let test_trace_set_find () =
  let t1 = mk_trace ~pid:3 ~tid:2 [ Event.Call 0 ] in
  let ts = Trace_set.create (Symtab.create ()) [ t1 ] in
  (match Trace_set.find ts ~pid:3 ~tid:2 with
  | Some tr -> Alcotest.(check int) "found" 1 (Trace.length tr)
  | None -> Alcotest.fail "missing");
  Alcotest.(check (option int)) "miss" None
    (Option.map Trace.length (Trace_set.find ts ~pid:9 ~tid:9));
  Alcotest.check_raises "find_exn miss" Not_found (fun () ->
      ignore (Trace_set.find_exn ts ~pid:9 ~tid:9))

let test_trace_set_map_events () =
  let t1 = mk_trace [ Event.Call 0; Event.Return 0; Event.Call 1 ] in
  let ts = Trace_set.create (Symtab.create ()) [ t1 ] in
  let ts' =
    Trace_set.map_events
      (fun tr -> Array.of_list (List.filter Event.is_call (Array.to_list tr.Trace.events)))
      ts
  in
  Alcotest.(check int) "filtered" 2 (Trace_set.total_events ts');
  Alcotest.(check int) "original untouched" 3 (Trace_set.total_events ts)

let () =
  Alcotest.run "trace"
    [ ( "symtab",
        [ Alcotest.test_case "intern" `Quick test_symtab_intern ] );
      ( "event",
        [ Alcotest.test_case "basics" `Quick test_event_basics;
          prop_event_codec;
          prop_event_decode_oracle ] );
      ( "trace",
        [ Alcotest.test_case "call_ids" `Quick test_trace_call_ids;
          Alcotest.test_case "labels" `Quick test_trace_label ] );
      ( "trace_set",
        [ Alcotest.test_case "ordering" `Quick test_trace_set_ordering;
          Alcotest.test_case "find" `Quick test_trace_set_find;
          Alcotest.test_case "map_events" `Quick test_trace_set_map_events ] ) ]
