(* Persistent analysis store: round-trip fidelity, flush determinism,
   the corruption corpus (salvage-never-crash discipline, mirroring
   test_archive.ml), gc/eviction accounting, and the read-only verify
   scan. The invariant behind every case: whatever the store's state —
   cold, warm, damaged, garbage — analysis results are bit-identical
   to a storeless run. *)

open Difftrace
module Fault = Difftrace_simulator.Fault
module R = Difftrace_simulator.Runtime
module F = Difftrace_filter.Filter
module Odd_even = Difftrace_workloads.Odd_even
module Prng = Difftrace_util.Prng

let tmpdir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_store_" ^ name) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let store_path dir = Filename.concat dir "analysis.store"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_bit path ~byte ~bit =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s byte (Char.chr (Char.code (Bytes.get s byte) lxor (1 lsl bit)));
  write_file path (Bytes.to_string s)

let truncate_file path ~keep =
  write_file path (String.sub (read_file path) 0 keep)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Store.error_to_string e)

let sample_traces () =
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  outcome.R.traces

let config () = Config.make ~filter:(F.make []) ()

(* one analyzed-and-flushed store on disk; returns its directory *)
let make_store name ts =
  let dir = tmpdir name in
  let st = get (Store.load ~dir) in
  ignore (Pipeline.analyze ~store:st (config ()) ts);
  get (Store.flush st);
  dir

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              ra rb)
       a b

let jsm_equal (a : Jsm.t) (b : Jsm.t) =
  a.Jsm.labels = b.Jsm.labels && bits_equal (Jsm.rows a) (Jsm.rows b)

(* counters only move while telemetry is enabled; always restore *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect f ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())

let c_crc_fail = Telemetry.Counter.make "store.crc_fail"
let c_evictions = Telemetry.Counter.make "store.evictions"

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_warm_all_hit () =
  let ts = sample_traces () in
  let cold = Pipeline.analyze (config ()) ts in
  let dir = make_store "roundtrip" ts in
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check bool) "has summaries" true (s.Store.summaries > 0);
  Alcotest.(check int) "one matrix" 1 s.Store.matrices;
  Alcotest.(check bool) "clean load" false s.Store.salvaged;
  Alcotest.(check bool) "file on disk" true (s.Store.file_bytes > 0);
  let warm = Pipeline.analyze ~store:st (config ()) ts in
  let ms = Memo.stats (Store.memo st) in
  Alcotest.(check int) "zero summarizations on the warm run" 0 ms.Memo.misses;
  Alcotest.(check bool) "summaries served from disk" true (ms.Memo.hits > 0);
  Alcotest.(check bool) "warm JSM bit-identical" true
    (jsm_equal cold.Pipeline.jsm warm.Pipeline.jsm)

let test_warm_flush_is_noop () =
  let ts = sample_traces () in
  let dir = make_store "warmnoop" ts in
  let image = read_file (store_path dir) in
  let st = get (Store.load ~dir) in
  ignore (Pipeline.analyze ~store:st (config ()) ts);
  get (Store.flush st);
  Alcotest.(check bool) "fully warm run leaves the file untouched" true
    (read_file (store_path dir) = image)

let test_flush_deterministic () =
  let ts = sample_traces () in
  let a = make_store "det_a" ts in
  let b = make_store "det_b" ts in
  Alcotest.(check bool) "same work renders the same bytes" true
    (read_file (store_path a) = read_file (store_path b))

let test_cold_start_missing () =
  let dir = tmpdir "coldmiss" in
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check int) "no summaries" 0 s.Store.summaries;
  Alcotest.(check int) "no matrices" 0 s.Store.matrices;
  Alcotest.(check int) "no file yet" 0 s.Store.file_bytes

(* ------------------------------------------------------------------ *)
(* Corruption corpus                                                   *)
(* ------------------------------------------------------------------ *)

(* every mutation of a valid store must load Ok — salvaged or cold,
   never an exception — and keep analysis bit-identical to storeless *)
let test_corruption_corpus () =
  let ts = sample_traces () in
  let reference = Pipeline.analyze (config ()) ts in
  let prng = Prng.create 42 in
  for case = 0 to 29 do
    let dir = make_store (Printf.sprintf "corpus_%d" case) ts in
    let victim = store_path dir in
    let size = String.length (read_file victim) in
    let what =
      match case mod 3 with
      | 0 ->
        let byte = Prng.int prng size in
        flip_bit victim ~byte ~bit:(Prng.int prng 8);
        Printf.sprintf "bit flip @%d" byte
      | 1 ->
        let keep = Prng.int prng size in
        truncate_file victim ~keep;
        Printf.sprintf "truncate to %d" keep
      | _ ->
        let n = 1 + Prng.int prng 16 in
        write_file victim
          (read_file victim
          ^ String.init n (fun _ -> Char.chr (Prng.int prng 256)));
        Printf.sprintf "append %d garbage bytes" n
    in
    let ctx = Printf.sprintf "case %d (%s)" case what in
    match Store.load ~dir with
    | Error e -> Alcotest.fail (ctx ^ ": " ^ Store.error_to_string e)
    | exception e -> Alcotest.fail (ctx ^ ": raised " ^ Printexc.to_string e)
    | Ok st ->
      let a = Pipeline.analyze ~store:st (config ()) ts in
      Alcotest.(check bool)
        (ctx ^ ": analysis unaffected by damage")
        true
        (jsm_equal reference.Pipeline.jsm a.Pipeline.jsm)
  done

let test_crc_fail_accounting () =
  let ts = sample_traces () in
  let dir = make_store "crcfail" ts in
  let victim = store_path dir in
  (* flip a bit well past the magic so framing, not magic, catches it *)
  flip_bit victim ~byte:(String.length (read_file victim) - 3) ~bit:0;
  with_telemetry (fun () ->
      let before = Telemetry.Counter.value c_crc_fail in
      let st = get (Store.load ~dir) in
      Alcotest.(check int) "store.crc_fail counted" (before + 1)
        (Telemetry.Counter.value c_crc_fail);
      Alcotest.(check bool) "load reports salvage" true
        (Store.stats st).Store.salvaged)

let test_salvage_rewrites_clean () =
  let ts = sample_traces () in
  let dir = make_store "salvage_rw" ts in
  let victim = store_path dir in
  truncate_file victim ~keep:(String.length (read_file victim) - 2);
  let st = get (Store.load ~dir) in
  Alcotest.(check bool) "salvaged" true (Store.stats st).Store.salvaged;
  (* a salvaged store is dirty: the next flush rewrites a clean file *)
  get (Store.flush st);
  let st2 = get (Store.load ~dir) in
  Alcotest.(check bool) "clean after rewrite" false
    (Store.stats st2).Store.salvaged;
  let c = get (Store.verify ~dir) in
  Alcotest.(check bool) "verify agrees" true (c.Store.c_damage = None)

let test_stale_version_is_cold () =
  let ts = sample_traces () in
  let dir = make_store "stale" ts in
  let victim = store_path dir in
  let image = read_file victim in
  write_file victim
    ("difftrace-store 0\n"
    ^ String.sub image 18 (String.length image - 18));
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check int) "unknown version adopts nothing" 0 s.Store.summaries;
  Alcotest.(check int) "no matrices either" 0 s.Store.matrices;
  Alcotest.(check bool) "flagged as salvaged" true s.Store.salvaged

let test_empty_file_is_cold () =
  let ts = sample_traces () in
  let dir = make_store "emptyfile" ts in
  write_file (store_path dir) "";
  let st = get (Store.load ~dir) in
  Alcotest.(check int) "cold" 0 (Store.stats st).Store.summaries;
  Alcotest.(check bool) "salvaged flag set" true (Store.stats st).Store.salvaged

let test_foreign_file_ignored () =
  let ts = sample_traces () in
  let dir = make_store "foreign" ts in
  write_file (Filename.concat dir "foreign.bin") "not a store record\n";
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check bool) "store still loads" true (s.Store.summaries > 0);
  Alcotest.(check bool) "clean — foreign files are not store damage" false
    s.Store.salvaged;
  get (Store.flush st);
  Alcotest.(check bool) "foreign file left alone" true
    (Sys.file_exists (Filename.concat dir "foreign.bin"))

let test_dir_is_a_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "difftrace_store_plainfile"
  in
  write_file path "just a file\n";
  match Store.load ~dir:path with
  | Ok _ -> Alcotest.fail "loaded a store rooted at a regular file"
  | Error e ->
    Alcotest.(check bool) "diagnostic names the path" true
      (let s = Store.error_to_string e in
       String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Gc / eviction                                                       *)
(* ------------------------------------------------------------------ *)

let test_gc_and_eviction_accounting () =
  let ts = sample_traces () in
  let dir = make_store "gc" ts in
  let st = get (Store.load ~dir) in
  let s0 = Store.stats st in
  with_telemetry (fun () ->
      let before = Telemetry.Counter.value c_evictions in
      let ds, dm, dg, _ = Store.gc ~keep_summaries:1 ~keep_matrices:0 st in
      Alcotest.(check int) "summaries dropped" (s0.Store.summaries - 1) ds;
      Alcotest.(check int) "matrices dropped" s0.Store.matrices dm;
      Alcotest.(check int) "no signatures in an exact-mode store" 0 dg;
      Alcotest.(check int) "store.evictions counted" (before + ds + dm + dg)
        (Telemetry.Counter.value c_evictions));
  get (Store.flush st);
  let st2 = get (Store.load ~dir) in
  let s1 = Store.stats st2 in
  Alcotest.(check int) "one summary survives on disk" 1 s1.Store.summaries;
  Alcotest.(check int) "no matrices survive" 0 s1.Store.matrices;
  (* a gc'd store is still just a cache: analysis repopulates it *)
  let a = Pipeline.analyze ~store:st2 (config ()) ts in
  Alcotest.(check bool) "analysis unaffected" true
    (jsm_equal (Pipeline.analyze (config ()) ts).Pipeline.jsm a.Pipeline.jsm);
  get (Store.flush st2);
  let s2 = Store.stats (get (Store.load ~dir)) in
  Alcotest.(check int) "matrix re-recorded" 1 s2.Store.matrices;
  Alcotest.(check int) "summaries repopulated" s0.Store.summaries
    s2.Store.summaries

(* Regression: MinHash signatures are store objects like any other —
   persisted across flush/load, served back on warm sketch runs, and
   subject to the same stamp-ordered gc caps. The eviction cap once
   ignored them, so a sketch-heavy store grew without bound. *)
let c_sig_hits = Telemetry.Counter.make "store.sig_hits"
let c_sig_misses = Telemetry.Counter.make "store.sig_misses"

let test_signatures_persist_and_gc_caps () =
  let ts = sample_traces () in
  let sketch_config = Config.with_mode Config.Sketch (config ()) in
  let dir = tmpdir "signatures" in
  let st = get (Store.load ~dir) in
  let cold = Pipeline.analyze ~store:st sketch_config ts in
  get (Store.flush st);
  let st2 = get (Store.load ~dir) in
  let s0 = Store.stats st2 in
  Alcotest.(check bool) "signatures persisted" true (s0.Store.signatures > 0);
  with_telemetry (fun () ->
      let warm = Pipeline.analyze ~store:st2 sketch_config ts in
      Alcotest.(check bool) "warm sketch JSM bit-identical" true
        (jsm_equal cold.Pipeline.jsm warm.Pipeline.jsm);
      Alcotest.(check int) "warm run recomputes no signature" 0
        (Telemetry.Counter.value c_sig_misses);
      (* one lookup per object, all hits; objects sharing an attribute
         digest share one persisted signature, so hits ≥ records *)
      Alcotest.(check bool) "every lookup served from disk" true
        (Telemetry.Counter.value c_sig_hits >= s0.Store.signatures));
  (* verify counts the signature records too *)
  let c = get (Store.verify ~dir) in
  Alcotest.(check int) "verify counts signatures" s0.Store.signatures
    c.Store.c_signatures;
  (* the gc cap: signatures age out stamp-ordered like summaries and
     matrices, and the cap survives the next flush *)
  let _, _, dg, _ = Store.gc ~keep_signatures:1 st2 in
  Alcotest.(check int) "all but the newest dropped" (s0.Store.signatures - 1) dg;
  get (Store.flush st2);
  let s1 = Store.stats (get (Store.load ~dir)) in
  Alcotest.(check int) "cap holds on disk" 1 s1.Store.signatures;
  (* exact mode never touches signature records: same store, exact
     config, counters stay flat *)
  with_telemetry (fun () ->
      let st3 = get (Store.load ~dir) in
      ignore (Pipeline.analyze ~store:st3 (config ()) ts);
      Alcotest.(check int) "exact mode: no signature lookups" 0
        (Telemetry.Counter.value c_sig_hits
        + Telemetry.Counter.value c_sig_misses))

(* ------------------------------------------------------------------ *)
(* Verify                                                              *)
(* ------------------------------------------------------------------ *)

let test_verify_clean_and_damaged () =
  let ts = sample_traces () in
  let dir = make_store "verify" ts in
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  let c = get (Store.verify ~dir) in
  Alcotest.(check bool) "no damage" true (c.Store.c_damage = None);
  Alcotest.(check int) "summary count agrees" s.Store.summaries
    c.Store.c_summaries;
  Alcotest.(check int) "matrix count agrees" s.Store.matrices
    c.Store.c_matrices;
  Alcotest.(check int) "symbol count agrees" s.Store.symbols c.Store.c_symbols;
  Alcotest.(check int) "byte count agrees" s.Store.file_bytes c.Store.c_bytes;
  (* damage the tail: verify must report it without adopting anything *)
  truncate_file (store_path dir) ~keep:(s.Store.file_bytes - 1);
  let d = get (Store.verify ~dir) in
  (match d.Store.c_damage with
  | None -> Alcotest.fail "verify missed the damage"
  | Some _ -> ());
  Alcotest.(check bool) "salvageable prefix counted" true
    (d.Store.c_records < c.Store.c_records);
  (* a missing store verifies as empty, not as an error *)
  let e = get (Store.verify ~dir:(tmpdir "verify_missing")) in
  Alcotest.(check int) "missing store: zero records" 0 e.Store.c_records;
  Alcotest.(check bool) "missing store: no damage" true (e.Store.c_damage = None)

(* A write the kernel refuses only at close: with the temp file a
   symlink to /dev/full and the store far below one 64 KiB channel
   buffer, every byte fits in the buffer and ENOSPC surfaces at
   [close_out]. The flush must report it and keep the previous file. *)
let test_flush_failed_close_keeps_store () =
  let dir = make_store "devfull" (sample_traces ()) in
  let before = read_file (store_path dir) in
  let tmp = store_path dir ^ ".tmp" in
  Unix.symlink "/dev/full" tmp;
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let st = get (Store.load ~dir) in
      (* new summaries make the store dirty, so the flush writes *)
      let outcome, _ = Odd_even.run ~np:6 ~fault:Fault.No_fault () in
      ignore (Pipeline.analyze ~store:st (config ()) outcome.R.traces);
      (match Store.flush st with
      | Ok () -> Alcotest.fail "flush reported success on a full device"
      | Error _ -> ());
      Alcotest.(check bool) "previous store kept" true
        (read_file (store_path dir) = before);
      let s = Store.stats (get (Store.load ~dir)) in
      Alcotest.(check bool) "previous store reloads" true
        (s.Store.summaries > 0 && not s.Store.salvaged))

(* ------------------------------------------------------------------ *)
(* The replaced scan and record decoder as an oracle                   *)
(* ------------------------------------------------------------------ *)

module Oracle = Oracles.Store
module Framing = Difftrace_util.Framing
module Nlr = Difftrace_nlr.Nlr

(* one store holding every record kind: symbols, loop bodies,
   summaries, exact and sketch matrices, signatures and vdiffs *)
let rich_image =
  lazy
    (let ts = sample_traces () in
     let dir = tmpdir "rich" in
     let st = get (Store.load ~dir) in
     ignore (Pipeline.analyze ~store:st (config ()) ts);
     let sketch = Config.with_mode Config.Sketch (config ()) in
     ignore (Pipeline.analyze ~store:st sketch ts);
     Store.add_vdiff st ~key:(Digest.string "a") ~nruns:2
       [| ("MPI_Init", [ 0; 1 ]); ("MPI_Send", [ 1 ]) |];
     Store.add_vdiff st ~key:(Digest.string "b") ~nruns:3 [| ("", [ 2 ]) |];
     get (Store.flush st);
     read_file (store_path dir))

let store_mutation =
  Mutation.record_mutation
    ~unframe:(fun image ->
      let payloads = ref [] in
      Framing.scan ~magic:Oracle.magic image (fun pos len ->
          payloads := String.sub image pos len :: !payloads)
      |> Result.map (fun () -> List.rev !payloads))
    ~reframe:(fun payloads ->
      let b = Buffer.create 4096 in
      Buffer.add_string b Oracle.magic;
      List.iter (Framing.add_record b) payloads;
      Buffer.contents b)

let oracle_check image =
  let records, damage, bytes = Oracle.scan image in
  let count p = List.length (List.filter p records) in
  { Store.c_records = List.length records;
    c_summaries = count (function Oracle.Rsummary _ -> true | _ -> false);
    c_matrices = count (function Oracle.Rmatrix _ -> true | _ -> false);
    c_signatures = count (function Oracle.Rsignature _ -> true | _ -> false);
    c_vdiffs = count (function Oracle.Rvdiff _ -> true | _ -> false);
    c_symbols = count (function Oracle.Rsymbol _ -> true | _ -> false);
    c_loop_bodies = count (function Oracle.Rbody _ -> true | _ -> false);
    c_bytes = bytes;
    c_damage = damage }

(* what a load adopts: table sizes, entry counts, the salvage flag and
   every summary (the file's own size is not the scan's business) *)
let load_view st =
  ( { (Store.stats st) with Store.file_bytes = 0 },
    Memo.fold (Store.memo st) ~init:[] ~f:(fun key nlr acc -> (key, nlr) :: acc)
    |> List.sort compare )

(* the same view over the oracle's records, replayed as the loader's
   adoption does: a duplicate symbol or loop body stops it there *)
let oracle_load_view image =
  let records, damage, _ = Oracle.scan image in
  let symbols = Hashtbl.create 16 and table = Nlr.Loop_table.create () in
  let summaries = Hashtbl.create 16 and matrices = Hashtbl.create 16 in
  let signatures = Hashtbl.create 16 and vdiffs = Hashtbl.create 16 in
  let rec adopt = function
    | [] -> true
    | Oracle.Rsymbol name :: _ when Hashtbl.mem symbols name -> false
    | Oracle.Rsymbol name :: rest ->
      Hashtbl.add symbols name ();
      adopt rest
    | Oracle.Rbody elems :: rest ->
      let id = Nlr.Loop_table.size table in
      Nlr.Loop_table.intern table elems = id && adopt rest
    | Oracle.Rsummary { key; nlr; _ } :: rest ->
      Hashtbl.replace summaries key nlr;
      adopt rest
    | Oracle.Rmatrix e :: rest ->
      Hashtbl.replace matrices (Oracle.matrix_identity e) ();
      adopt rest
    | Oracle.Rsignature { digest; _ } :: rest ->
      Hashtbl.replace signatures digest ();
      adopt rest
    | Oracle.Rvdiff { key; _ } :: rest ->
      Hashtbl.replace vdiffs key ();
      adopt rest
  in
  let clean = adopt records in
  ( { Store.summaries = Hashtbl.length summaries;
      matrices = Hashtbl.length matrices;
      signatures = Hashtbl.length signatures;
      vdiffs = Hashtbl.length vdiffs;
      symbols = Hashtbl.length symbols;
      loop_bodies = Nlr.Loop_table.size table;
      file_bytes = 0;
      salvaged = damage <> None || not clean },
    Hashtbl.fold (fun key nlr acc -> (key, nlr) :: acc) summaries []
    |> List.sort compare )

let prop_mutated_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"load/verify = oracle scan on mutated store files"
       QCheck2.Gen.(list_size (int_range 1 3) store_mutation)
       (fun mutations ->
         let image =
           List.fold_left (fun s f -> f s) (Lazy.force rich_image) mutations
         in
         let dir = tmpdir "oracle_mutated" in
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         write_file (store_path dir) image;
         get (Store.verify ~dir) = oracle_check image
         && load_view (get (Store.load ~dir)) = oracle_load_view image))

let () =
  Alcotest.run "store"
    [ ( "round-trip",
        [ Alcotest.test_case "warm reload is all-hit and bit-identical" `Quick
            test_roundtrip_warm_all_hit;
          Alcotest.test_case "fully warm flush is a no-op" `Quick
            test_warm_flush_is_noop;
          Alcotest.test_case "flush renders deterministically" `Quick
            test_flush_deterministic;
          Alcotest.test_case "missing dir/file is a cold start" `Quick
            test_cold_start_missing ] );
      ( "corruption",
        [ Alcotest.test_case "corpus: flip/truncate/append never crash" `Quick
            test_corruption_corpus;
          Alcotest.test_case "store.crc_fail accounting" `Quick
            test_crc_fail_accounting;
          Alcotest.test_case "salvage rewrites a clean file" `Quick
            test_salvage_rewrites_clean;
          Alcotest.test_case "stale format version falls back cold" `Quick
            test_stale_version_is_cold;
          Alcotest.test_case "empty store file falls back cold" `Quick
            test_empty_file_is_cold;
          Alcotest.test_case "foreign files in the dir are ignored" `Quick
            test_foreign_file_ignored;
          Alcotest.test_case "dir being a regular file is an error" `Quick
            test_dir_is_a_file;
          Alcotest.test_case "flush reports a failed close" `Quick
            test_flush_failed_close_keeps_store;
          prop_mutated_matches_oracle ] );
      ( "gc",
        [ Alcotest.test_case "gc drops oldest and counts evictions" `Quick
            test_gc_and_eviction_accounting;
          Alcotest.test_case "signatures persist and obey the gc cap" `Quick
            test_signatures_persist_and_gc_caps ] );
      ( "verify",
        [ Alcotest.test_case "verify: clean, damaged, missing" `Quick
            test_verify_clean_and_damaged ] ) ]
