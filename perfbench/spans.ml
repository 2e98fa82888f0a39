(* In-memory span recorder for the traced run.

   A span has a name, a start, an end (monotonic nanoseconds), a parent
   and the id of the operation it belongs to; an operation is a root
   span. Nothing is written until the run ends. Self time is a span's
   duration minus its direct children's, so per operation the self
   times of all its spans add up exactly to the root's duration. With
   [enabled] false, [span] only calls its function. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

type span = {
  id : int;
  op : int;
  name : string;
  parent : int;  (** -1 for an operation's root *)
  start_ns : int64;
  stop_ns : int64;
  alloc_bytes : float;  (** allocated while open, children included *)
}

let recorded : span list ref = ref []
let next_id = ref 0
let open_ : int list ref = ref []
let current_op = ref 0
let enabled = ref true

let span name f =
  if not !enabled then f () else
  let id = !next_id in
  incr next_id;
  let parent = match !open_ with p :: _ -> p | [] -> -1 in
  let op = !current_op in
  open_ := id :: !open_;
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  let close () =
    let t1 = now_ns () in
    let a1 = Gc.allocated_bytes () in
    open_ := List.tl !open_;
    recorded :=
      { id; op; name; parent; start_ns = t0; stop_ns = t1; alloc_bytes = a1 -. a0 }
      :: !recorded
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* [operation kind f] — a new operation id and its root span *)
let operation kind f =
  incr current_op;
  span ("op:" ^ kind) f

let is_root s = s.parent < 0
let duration s = Int64.sub s.stop_ns s.start_ns

(* the spans of one operation, oldest first *)
let of_op op =
  List.rev (List.filter (fun s -> s.op = op) !recorded)

(* [(span, self_ns, self_alloc)] for every span of [spans] *)
let self_times spans =
  let child_ns = Hashtbl.create 64 and child_alloc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not (is_root s) then begin
        let ns = Option.value ~default:0L (Hashtbl.find_opt child_ns s.parent) in
        let al = Option.value ~default:0.0 (Hashtbl.find_opt child_alloc s.parent) in
        Hashtbl.replace child_ns s.parent (Int64.add ns (duration s));
        Hashtbl.replace child_alloc s.parent (al +. s.alloc_bytes)
      end)
    spans;
  List.map
    (fun s ->
      ( s,
        Int64.sub (duration s)
          (Option.value ~default:0L (Hashtbl.find_opt child_ns s.id)),
        s.alloc_bytes
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_alloc s.id) ))
    spans

(* one JSON object per line, times relative to the first span *)
let write_jsonl file =
  let spans = List.rev !recorded in
  let origin =
    List.fold_left (fun acc s -> min acc s.start_ns) Int64.max_int spans
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"alloc_bytes\":%.0f}\n"
            s.op s.id s.parent s.name (Int64.sub s.start_ns origin)
            (Int64.sub s.stop_ns origin) s.alloc_bytes)
        spans)
