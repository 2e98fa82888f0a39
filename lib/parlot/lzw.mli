(** Streaming LZW compression over byte strings.

    ParLOT's defining property is *on-the-fly, incremental* compression
    of each thread's function-ID stream: events are compressed as they
    are produced, so only a bounded encoder state (not the trace) is
    resident, and the output is appended to the thread's trace file as
    the application runs. This module reproduces that property with the
    classic LZW scheme over bytes; dictionary codes are emitted as
    LEB128 varints so fresh (small) codes stay short.

    Both directions keep their dictionaries in flat int and byte
    tables that double when full. A step of the encoder or decoder
    allocates nothing beyond that amortized growth and the output
    buffer's, so encoding or decoding a trace costs a few allocations
    per trace, not one or more per byte. *)

type encoder

(** [encoder ()] is a fresh streaming encoder. *)
val encoder : unit -> encoder

(** [feed e byte] pushes one input byte; any completed codes are
    appended to the encoder's internal output buffer immediately. *)
val feed : encoder -> char -> unit

(** [feed_string e s] pushes every byte of [s]. *)
val feed_string : encoder -> string -> unit

(** [feed_varint e n] pushes the unsigned LEB128 coding of [n] — the
    bytes [Varint.write] would emit — without building them as a string.
    Raises [Invalid_argument] if [n < 0]. *)
val feed_varint : encoder -> int -> unit

(** [finish e] flushes the pending phrase and returns the complete
    compressed output. The encoder must not be fed afterwards. *)
val finish : encoder -> string

(** [output_size e] is the number of compressed bytes produced so far
    (excluding the unflushed pending phrase). *)
val output_size : encoder -> int

(** [input_size e] is the number of bytes fed so far. *)
val input_size : encoder -> int

(** [compress s] is one-shot compression. *)
val compress : string -> string

(** {1 Incremental decoding}

    The decoder mirrors the encoder's streaming property: compressed
    bytes are accepted in arbitrary slices (a varint code may straddle
    two feeds), so archive ingestion never materializes a whole trace
    file. Corruption — an out-of-range code, a phrase code before any
    literal, an over-long varint run, or bytes after the end-of-stream
    marker — raises [Invalid_argument]; everything decoded before the
    bad byte remains available via {!decode_take} for salvage. *)

type decoder

(** [decoder ()] is a fresh streaming decoder. *)
val decoder : unit -> decoder

(** [decode_feed d s] pushes compressed bytes.
    Raises [Invalid_argument] on corrupt input or input past the
    end-of-stream marker. *)
val decode_feed : decoder -> string -> unit

(** [decode_take d] drains and returns the decompressed bytes produced
    since the last take. *)
val decode_take : decoder -> string

(** [decode_output d] is the decoder's output buffer: its first
    [decode_output_length d] bytes are the decompressed bytes not yet
    taken. It is read in place, without the copy {!decode_take} makes,
    and belongs to the decoder: the next feed may overwrite or replace
    it. *)
val decode_output : decoder -> Bytes.t

val decode_output_length : decoder -> int

(** [decode_clear d] drops the pending output, as {!decode_take} does
    after copying it. *)
val decode_clear : decoder -> unit

(** [decode_finished d] — has the end-of-stream marker been consumed? *)
val decode_finished : decoder -> bool

(** [decode_finish d] checks the end-of-stream marker was seen and
    drains the remaining output. Raises [Invalid_argument] if the
    stream is unterminated. *)
val decode_finish : decoder -> string

(** [decompress s] inverts [compress]/[feed]+[finish].
    Raises [Invalid_argument] on corrupt input: bad codes, a truncated
    or unterminated stream, or trailing bytes after the end-of-stream
    marker. *)
val decompress : string -> string
