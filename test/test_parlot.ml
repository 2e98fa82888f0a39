open Difftrace_parlot
open Difftrace_trace

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* LZW codec                                                           *)
(* ------------------------------------------------------------------ *)

let test_lzw_empty () =
  Alcotest.(check string) "empty roundtrip" "" (Lzw.decompress (Lzw.compress ""))

let test_lzw_simple () =
  let s = "abcabcabcabc" in
  Alcotest.(check string) "roundtrip" s (Lzw.decompress (Lzw.compress s))

let test_lzw_kwkwk () =
  (* the classic pathological case: a phrase referenced while being
     defined (runs of one character exercise it immediately) *)
  let s = String.make 64 'a' in
  Alcotest.(check string) "KwKwK" s (Lzw.decompress (Lzw.compress s))

let test_lzw_compresses_repetition () =
  let s = String.concat "" (List.init 500 (fun _ -> "MPI_Send;MPI_Recv;")) in
  let c = Lzw.compress s in
  Alcotest.(check bool) "repetitive input shrinks" true
    (String.length c < String.length s / 4);
  Alcotest.(check string) "and still roundtrips" s (Lzw.decompress c)

let test_lzw_streaming_matches_oneshot () =
  let s = "the quick brown fox jumps over the lazy dog the quick brown fox" in
  let e = Lzw.encoder () in
  String.iter (Lzw.feed e) s;
  Alcotest.(check int) "input size counted" (String.length s) (Lzw.input_size e);
  let streamed = Lzw.finish e in
  Alcotest.(check string) "same output as one-shot" (Lzw.compress s) streamed

let test_lzw_output_grows_incrementally () =
  let e = Lzw.encoder () in
  Lzw.feed_string e "abababababababababab";
  let mid = Lzw.output_size e in
  Alcotest.(check bool) "emitted codes before finish" true (mid > 0)

let test_lzw_corrupt () =
  Alcotest.check_raises "missing EOS"
    (Invalid_argument "Lzw.decompress: missing end-of-stream") (fun () ->
      ignore (Lzw.decompress "\x05"))

let varints codes =
  let b = Buffer.create 8 in
  List.iter (Difftrace_util.Varint.write b) codes;
  Buffer.contents b

let test_lzw_first_code_phrase () =
  (* a stream whose very first code references the phrase table, which
     is necessarily empty at that point: must be rejected cleanly *)
  Alcotest.check_raises "phrase code first"
    (Invalid_argument "Lzw.decompress: bad code") (fun () ->
      ignore (Lzw.decompress (varints [ 257; 256 ])))

let test_lzw_trailing_bytes () =
  Alcotest.check_raises "bytes after EOS"
    (Invalid_argument "Lzw.decompress: trailing bytes after end-of-stream")
    (fun () -> ignore (Lzw.decompress (Lzw.compress "abc" ^ "\x00")))

let test_lzw_code_out_of_range () =
  (* first literal is fine, but the next code skips far past the one
     phrase the decoder could know about *)
  Alcotest.check_raises "undefined phrase code"
    (Invalid_argument "Lzw.decompress: bad code") (fun () ->
      ignore (Lzw.decompress (varints [ Char.code 'a'; 300; 256 ])))

let test_lzw_decoder_streaming_parity () =
  (* byte-at-a-time incremental decode = one-shot, across chunk cuts
     that split varint codes *)
  let s = String.concat "" (List.init 50 (fun i -> Printf.sprintf "fn_%d;" (i mod 7))) in
  let c = Lzw.compress s in
  let d = Lzw.decoder () in
  let out = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      Lzw.decode_feed d (String.make 1 ch);
      Buffer.add_string out (Lzw.decode_take d))
    c;
  Buffer.add_string out (Lzw.decode_finish d);
  Alcotest.(check bool) "decoder reports completion" true (Lzw.decode_finished d);
  Alcotest.(check string) "streaming = one-shot" s (Buffer.contents out)

let prop_lzw_roundtrip =
  qtest "lzw roundtrip on small-alphabet strings" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'f') (int_range 0 500))
    (fun s -> Lzw.decompress (Lzw.compress s) = s)

let prop_lzw_roundtrip_binary =
  qtest "lzw roundtrip on binary strings"
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s -> Lzw.decompress (Lzw.compress s) = s)

(* ------------------------------------------------------------------ *)
(* Codec oracles: the flat-table LZW codec and the in-place event
   stream against the implementations they replaced, in [Oracles]    *)
(* ------------------------------------------------------------------ *)

module Gen = QCheck2.Gen

(* random bytes, a small alphabet, and the low-entropy inputs whose
   decoding leans on the KwKwK rule: single-byte runs and short
   repeated patterns *)
let codec_input =
  Gen.(
    oneof
      [ string_size (int_range 0 300);
        string_size ~gen:(char_range 'a' 'c') (int_range 0 600);
        map2 (fun c n -> String.make n c) char (int_range 0 2000);
        map2
          (fun pat n -> String.concat "" (List.init n (fun _ -> pat)))
          (string_size ~gen:(char_range 'a' 'd') (int_range 1 5))
          (int_range 0 300) ])

(* [s] cut into consecutive slices whose sizes cycle through [sizes] *)
let slices sizes s =
  let sizes = Array.of_list (if sizes = [] then [ 1 ] else sizes) in
  let rec go pos i acc =
    if pos >= String.length s then List.rev acc
    else
      let n = min sizes.(i mod Array.length sizes) (String.length s - pos) in
      go (pos + n) (i + 1) (String.sub s pos n :: acc)
  in
  go 0 0 []

let slice_sizes = Gen.(list_size (int_range 1 6) (int_range 1 40))

(* one corruption of a compressed stream: truncation, a replaced byte,
   appended bytes, or an over-long run of continuation bytes (0x80 runs
   add no value bits, so only the shift bound catches them) *)
let corrupt =
  Gen.(
    let* kind = int_range 0 3 in
    let* at = int_range 0 10_000 in
    let* byte = map Char.chr (int_range 0 255) in
    let* tail = string_size (int_range 1 12) in
    let* cont = oneofl [ '\x80'; '\xff' ] in
    let* run = int_range 8 12 in
    return (fun s ->
        let n = String.length s in
        let at = if n = 0 then 0 else at mod n in
        match kind with
        | 0 -> String.sub s 0 at
        | 1 when n > 0 -> String.mapi (fun i c -> if i = at then byte else c) s
        | 1 | 2 -> s ^ tail
        | _ -> String.sub s 0 at ^ String.make run cont ^ String.sub s at (n - at)))

(* everything a decoder emitted, fed slice by slice and drained after
   every feed, then how it ended *)
let decoder_outcome ~feed ~take ~finish pieces =
  let out = Buffer.create 256 in
  let ending =
    match
      List.iter
        (fun p ->
          feed p;
          Buffer.add_string out (take ()))
        pieces;
      finish ()
    with
    | rest ->
      Buffer.add_string out rest;
      Ok ()
    | exception Invalid_argument m ->
      Buffer.add_string out (take ());
      Error m
  in
  (Buffer.contents out, ending)

let new_decoder_outcome pieces =
  let d = Lzw.decoder () in
  decoder_outcome ~feed:(Lzw.decode_feed d)
    ~take:(fun () -> Lzw.decode_take d)
    ~finish:(fun () -> Lzw.decode_finish d)
    pieces

let oracle_decoder_outcome pieces =
  let d = Oracles.Lzw.decoder () in
  decoder_outcome ~feed:(Oracles.Lzw.decode_feed d)
    ~take:(fun () -> Oracles.Lzw.decode_take d)
    ~finish:(fun () -> Oracles.Lzw.decode_finish d)
    pieces

let prop_lzw_encoder_oracle =
  qtest "lzw encoder = oracle" ~count:300 codec_input (fun s ->
      Lzw.compress s = Oracles.Lzw.compress s)

let prop_lzw_feed_varint_oracle =
  qtest "lzw feed_varint = oracle feed of the varint bytes" ~count:200
    Gen.(list_size (int_range 0 300) (oneof [ int_range 0 40; int_range 0 100_000 ]))
    (fun codes ->
      let e = Lzw.encoder () and o = Oracles.Lzw.encoder () in
      List.iter
        (fun n ->
          Lzw.feed_varint e n;
          let b = Buffer.create 4 in
          Oracles.Varint.write b n;
          Oracles.Lzw.feed_string o (Buffer.contents b))
        codes;
      Lzw.output_size e = Oracles.Lzw.output_size o
      && Lzw.input_size e = Oracles.Lzw.input_size o
      && Lzw.finish e = Oracles.Lzw.finish o)

let prop_lzw_decoder_oracle =
  qtest "lzw decompress = oracle, fed in random slices" ~count:300
    Gen.(pair codec_input slice_sizes)
    (fun (s, sizes) ->
      let c = Oracles.Lzw.compress s in
      let pieces = slices sizes c in
      Lzw.decompress c = s
      && new_decoder_outcome pieces = oracle_decoder_outcome pieces)

(* the zero-copy view drains the same bytes as [decode_take] *)
let prop_lzw_output_view =
  qtest "lzw decode_output view = decode_take" ~count:100
    Gen.(pair codec_input slice_sizes)
    (fun (s, sizes) ->
      let d = Lzw.decoder () in
      let out = Buffer.create 64 in
      List.iter
        (fun p ->
          Lzw.decode_feed d p;
          Buffer.add_subbytes out (Lzw.decode_output d) 0 (Lzw.decode_output_length d);
          Lzw.decode_clear d)
        (slices sizes (Lzw.compress s));
      Buffer.contents out = s && Lzw.decode_finish d = "")

let prop_lzw_corrupt_oracle =
  qtest "lzw on corrupt streams: same error, same bytes decoded" ~count:500
    Gen.(triple codec_input slice_sizes corrupt)
    (fun (s, sizes, corrupt) ->
      let pieces = slices sizes (corrupt (Oracles.Lzw.compress s)) in
      new_decoder_outcome pieces = oracle_decoder_outcome pieces)

(* A streaming event decoder's observable run: the event count after
   each feed, the first failure, and the trace a finish (or, after a
   failure, a salvage) returns. *)
module type STREAM = sig
  type stream

  val stream_feed : stream -> string -> unit
  val stream_events : stream -> int
  val stream_complete : stream -> bool
  val stream_finish : stream -> pid:int -> tid:int -> truncated:bool -> Trace.t
  val stream_salvage : stream -> pid:int -> tid:int -> Trace.t
end

let stream_outcome (type s) (module S : STREAM with type stream = s) (st : s) pieces =
  let counts = ref [] in
  let failure =
    match
      List.iter
        (fun p ->
          S.stream_feed st p;
          counts := S.stream_events st :: !counts)
        pieces
    with
    | () -> None
    | exception Invalid_argument m -> Some (m, S.stream_events st)
  in
  let ending =
    match failure with
    | Some _ -> Error (S.stream_salvage st ~pid:1 ~tid:2)
    | None -> (
      let complete = S.stream_complete st in
      match S.stream_finish st ~pid:1 ~tid:2 ~truncated:false with
      | tr -> Ok (complete, tr)
      | exception Invalid_argument _ -> Error (S.stream_salvage st ~pid:1 ~tid:2))
  in
  (List.rev !counts, failure, ending)

(* decoded payloads: event varints, sometimes with stray continuation
   bytes so event varints overflow or end mid-event *)
let event_payload =
  Gen.(
    let* codes = list_size (int_range 0 200) (oneof [ int_range 0 60; int_range 0 70_000 ]) in
    let* junk = oneof [ return ""; string_size ~gen:(map Char.chr (int_range 0x80 0xff)) (int_range 1 12) ] in
    let b = Buffer.create 64 in
    List.iter (Oracles.Varint.write b) codes;
    return (List.length codes, Buffer.contents b ^ junk))

let prop_stream_oracle =
  qtest "tracer stream = oracle on intact and corrupt streams" ~count:400
    Gen.(quad event_payload slice_sizes (opt corrupt) (int_range 0 3))
    (fun ((n, payload), sizes, corrupt, hint) ->
      let c = Oracles.Lzw.compress payload in
      let c = match corrupt with Some f -> f c | None -> c in
      let pieces = slices sizes c in
      (* presize below, at and above the true count, or not at all *)
      let expected = match hint with 0 -> 0 | 1 -> n / 2 | 2 -> n | _ -> n + 7 in
      stream_outcome (module Tracer) (Tracer.stream ~expected ()) pieces
      = stream_outcome (module Oracles.Tracer) (Oracles.Tracer.stream ()) pieces)

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let mk_tracer ?(level = Tracer.Main_image) () =
  let symtab = Symtab.create () in
  (symtab, Tracer.create ~symtab ~level ~pid:1 ~tid:2)

let test_tracer_records_and_decodes () =
  let symtab, tr = mk_tracer () in
  Tracer.on_call tr "main";
  Tracer.on_call tr "MPI_Init";
  Tracer.on_return tr "MPI_Init";
  Tracer.on_return tr "main";
  Alcotest.(check int) "events recorded" 4 (Tracer.events_recorded tr);
  let data, truncated = Tracer.finish tr in
  Alcotest.(check bool) "not truncated" false truncated;
  let t = Tracer.decode ~symtab ~pid:1 ~tid:2 ~truncated data in
  Alcotest.(check int) "pid" 1 t.Trace.pid;
  Alcotest.(check int) "tid" 2 t.Trace.tid;
  Alcotest.(check (list string)) "decoded events"
    [ "main"; "MPI_Init"; "ret MPI_Init"; "ret main" ]
    (Trace.to_strings symtab t)

let test_tracer_image_filter () =
  let _, tr = mk_tracer ~level:Tracer.Main_image () in
  Tracer.on_call tr "user_fn";
  Tracer.on_call ~image:Tracer.Library tr "memcpy";
  Alcotest.(check int) "library call dropped in main-image" 1
    (Tracer.events_recorded tr);
  let _, tr2 = mk_tracer ~level:Tracer.All_images () in
  Tracer.on_call tr2 "user_fn";
  Tracer.on_call ~image:Tracer.Library tr2 "memcpy";
  Alcotest.(check int) "library call kept in all-images" 2
    (Tracer.events_recorded tr2)

let test_tracer_scoped_exception () =
  let symtab, tr = mk_tracer () in
  (try Tracer.scoped tr "f" (fun () -> failwith "boom") with Failure _ -> ());
  Tracer.set_truncated tr;
  let data, truncated = Tracer.finish tr in
  let t = Tracer.decode ~symtab ~pid:1 ~tid:2 ~truncated data in
  Alcotest.(check bool) "marked truncated" true t.Trace.truncated;
  Alcotest.(check (list string)) "no return after exception" [ "f" ]
    (Trace.to_strings symtab t)

let prop_tracer_roundtrip =
  qtest "tracer records arbitrary call/return streams" ~count:100
    QCheck2.Gen.(list_size (int_range 0 200) (pair (int_range 0 20) bool))
    (fun evs ->
      let symtab = Symtab.create () in
      let tr = Tracer.create ~symtab ~level:Tracer.All_images ~pid:0 ~tid:0 in
      let names = List.map (fun (i, c) -> (Printf.sprintf "fn%d" i, c)) evs in
      List.iter
        (fun (n, c) -> if c then Tracer.on_call tr n else Tracer.on_return tr n)
        names;
      let data, _ = Tracer.finish tr in
      let t = Tracer.decode ~symtab ~pid:0 ~tid:0 ~truncated:false data in
      Trace.to_strings symtab t
      = List.map (fun (n, c) -> if c then n else "ret " ^ n) names)

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let test_capture_shared_symtab_and_stats () =
  let cap = Capture.create () in
  let t00 = Capture.tracer cap ~pid:0 ~tid:0 in
  let t01 = Capture.tracer cap ~pid:0 ~tid:1 in
  let again = Capture.tracer cap ~pid:0 ~tid:0 in
  Alcotest.(check bool) "same tracer handed back" true (t00 == again);
  Tracer.on_call t00 "f";
  Tracer.on_call t01 "f";
  Tracer.on_call t01 "g";
  let ts = Capture.finish cap in
  Alcotest.(check int) "two traces" 2 (Trace_set.cardinal ts);
  Alcotest.(check int) "shared symbol ids" 2 (Symtab.size (Trace_set.symtab ts));
  let stats = Capture.stats cap ts in
  Alcotest.(check int) "threads" 2 stats.Capture.threads;
  Alcotest.(check int) "events" 3 stats.Capture.total_events;
  Alcotest.(check bool) "compressed bytes positive" true
    (stats.Capture.total_compressed_bytes > 0)

let test_capture_stats_compression () =
  (* a long repetitive stream must compress well and the ratio must be
     reflected in the stats *)
  let cap = Capture.create () in
  let tr = Capture.tracer cap ~pid:0 ~tid:0 in
  for _ = 1 to 5000 do
    Tracer.on_call tr "MPI_Send";
    Tracer.on_return tr "MPI_Send";
    Tracer.on_call tr "MPI_Recv";
    Tracer.on_return tr "MPI_Recv"
  done;
  let ts = Capture.finish cap in
  let stats = Capture.stats cap ts in
  Alcotest.(check int) "20k events" 20000 stats.Capture.total_events;
  Alcotest.(check bool) "ratio well above 10x" true
    (stats.Capture.compression_ratio > 10.0);
  Alcotest.(check bool) "compressed under 2KB" true
    (stats.Capture.total_compressed_bytes < 2048)

let () =
  Alcotest.run "parlot"
    [ ( "lzw",
        [ Alcotest.test_case "empty" `Quick test_lzw_empty;
          Alcotest.test_case "simple" `Quick test_lzw_simple;
          Alcotest.test_case "KwKwK" `Quick test_lzw_kwkwk;
          Alcotest.test_case "compresses repetition" `Quick test_lzw_compresses_repetition;
          Alcotest.test_case "streaming = one-shot" `Quick test_lzw_streaming_matches_oneshot;
          Alcotest.test_case "incremental output" `Quick test_lzw_output_grows_incrementally;
          Alcotest.test_case "corrupt input" `Quick test_lzw_corrupt;
          Alcotest.test_case "first code is phrase" `Quick test_lzw_first_code_phrase;
          Alcotest.test_case "trailing bytes" `Quick test_lzw_trailing_bytes;
          Alcotest.test_case "code out of range" `Quick test_lzw_code_out_of_range;
          Alcotest.test_case "streaming decoder parity" `Quick
            test_lzw_decoder_streaming_parity;
          prop_lzw_roundtrip;
          prop_lzw_roundtrip_binary ] );
      ( "oracle",
        [ prop_lzw_encoder_oracle;
          prop_lzw_feed_varint_oracle;
          prop_lzw_decoder_oracle;
          prop_lzw_output_view;
          prop_lzw_corrupt_oracle;
          prop_stream_oracle ] );
      ( "tracer",
        [ Alcotest.test_case "records and decodes" `Quick test_tracer_records_and_decodes;
          Alcotest.test_case "image filter" `Quick test_tracer_image_filter;
          Alcotest.test_case "scoped exception truncates" `Quick test_tracer_scoped_exception;
          prop_tracer_roundtrip ] );
      ( "capture",
        [ Alcotest.test_case "shared symtab + stats" `Quick
            test_capture_shared_symtab_and_stats;
          Alcotest.test_case "compression stats" `Quick
            test_capture_stats_compression ] ) ]
