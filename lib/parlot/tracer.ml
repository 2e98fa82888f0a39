open Difftrace_trace
module Telemetry = Difftrace_obs.Telemetry

let c_captured = Telemetry.Counter.make "parlot.events.captured"
let c_compressed = Telemetry.Counter.make "parlot.bytes.compressed"
let c_decoded_traces = Telemetry.Counter.make "parlot.traces.decoded"
let c_decoded_events = Telemetry.Counter.make "parlot.events.decoded"

type image = Main | Library
type level = Main_image | All_images

type t = {
  symtab : Symtab.t;
  level : level;
  pid : int;
  tid : int;
  encoder : Lzw.encoder;
  mutable nevents : int;
  mutable truncated : bool;
}

let create ~symtab ~level ~pid ~tid =
  { symtab;
    level;
    pid;
    tid;
    encoder = Lzw.encoder ();
    nevents = 0;
    truncated = false }

let pid t = t.pid
let tid t = t.tid
let keeps t image = match (t.level, image) with All_images, _ | Main_image, Main -> true | Main_image, Library -> false

let record t event =
  Lzw.feed_varint t.encoder (Event.encode event);
  Telemetry.Counter.incr c_captured;
  t.nevents <- t.nevents + 1

let on_call ?(image = Main) t name =
  if keeps t image then record t (Event.Call (Symtab.intern t.symtab name))

let on_return ?(image = Main) t name =
  if keeps t image then record t (Event.Return (Symtab.intern t.symtab name))

let scoped ?image t name f =
  on_call ?image t name;
  let r = f () in
  on_return ?image t name;
  r

let set_truncated t = t.truncated <- true
let events_recorded t = t.nevents
let compressed_so_far t = Lzw.output_size t.encoder
let finish t =
  let data = Lzw.finish t.encoder in
  Telemetry.Counter.add c_compressed (String.length data);
  (data, t.truncated)

(* Streaming decode: compressed bytes go through the incremental LZW
   decoder, and the decompressed varint-event stream is parsed as it
   drains, straight out of the decoder's output buffer — a partial event
   varint is carried across feeds, so the archive layer can push
   arbitrary chunk slices. Events land in an array presized from the
   expected count, which becomes the trace without a copy when the count
   is exact. *)

type stream = {
  lzw : Lzw.decoder;
  mutable s_events : Event.t array; (* [0, s_count) decoded *)
  mutable s_count : int;
  mutable s_acc : int; (* partial event varint *)
  mutable s_shift : int;
  mutable s_partial : bool; (* an event varint is in flight *)
  mutable s_bytes : int; (* compressed bytes fed so far *)
}

let filler = Event.Call 0

let stream ?(expected = 0) () =
  { lzw = Lzw.decoder ();
    s_events = Array.make (max 0 expected) filler;
    s_count = 0;
    s_acc = 0;
    s_shift = 0;
    s_partial = false;
    s_bytes = 0 }

let push st e =
  let n = st.s_count in
  if n = Array.length st.s_events then begin
    let a = Array.make (max 16 (2 * n)) filler in
    Array.blit st.s_events 0 a 0 n;
    st.s_events <- a
  end;
  st.s_events.(n) <- e;
  st.s_count <- n + 1

let drain st =
  let raw = Lzw.decode_output st.lzw in
  let len = Lzw.decode_output_length st.lzw in
  Lzw.decode_clear st.lzw;
  for i = 0 to len - 1 do
    let b = Char.code (Bytes.get raw i) in
    if st.s_shift > 56 then invalid_arg "Tracer.decode: event varint overflow";
    st.s_acc <- st.s_acc lor ((b land 0x7f) lsl st.s_shift);
    if st.s_acc < 0 then invalid_arg "Tracer.decode: event varint overflow";
    if b land 0x80 = 0 then begin
      push st (Event.decode st.s_acc);
      st.s_acc <- 0;
      st.s_shift <- 0;
      st.s_partial <- false
    end
    else begin
      st.s_shift <- st.s_shift + 7;
      st.s_partial <- true
    end
  done

let stream_feed st data =
  st.s_bytes <- st.s_bytes + String.length data;
  Lzw.decode_feed st.lzw data;
  drain st

let stream_events st = st.s_count

(* a zero-byte stream is a complete empty trace — the streaming analogue
   of [Lzw.decompress ""] = "" — not a missing end-of-stream marker *)
let stream_complete st =
  drain st;
  st.s_bytes = 0 || (Lzw.decode_finished st.lzw && not st.s_partial)

let stream_trace st ~pid ~tid ~truncated =
  Telemetry.Counter.incr c_decoded_traces;
  Telemetry.Counter.add c_decoded_events st.s_count;
  let events =
    if st.s_count = Array.length st.s_events then st.s_events
    else Array.sub st.s_events 0 st.s_count
  in
  Trace.make ~pid ~tid ~truncated events

let stream_finish st ~pid ~tid ~truncated =
  drain st;
  if st.s_bytes > 0 then ignore (Lzw.decode_finish st.lzw);
  if st.s_partial then invalid_arg "Tracer.decode: truncated event stream";
  stream_trace st ~pid ~tid ~truncated

(* Salvage: keep every event that decoded cleanly, drop a trailing
   partial varint, and force the truncation flag — the archive's
   recovery path for damaged trace files. *)
let stream_salvage st ~pid ~tid =
  (try drain st with Invalid_argument _ -> ());
  stream_trace st ~pid ~tid ~truncated:true

let decode ~symtab ~pid ~tid ~truncated data =
  ignore symtab;
  let st = stream () in
  stream_feed st data;
  stream_finish st ~pid ~tid ~truncated
