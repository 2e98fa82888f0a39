(* The DiffTrace benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one named workload (see README.md) in one process as a closed
   loop with one client: each operation starts when the previous one
   has finished. Every operation's answer is checked against an oracle
   that does not go through the code under test. Human-readable lines
   go first; the last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the run re-composes
   each operation from the layers' public entry points under spans and
   reports per-layer numbers instead. Exits 1 when any check fails. *)

module Session = Difftrace_core.Session
module Config = Difftrace_core.Config
module Memo = Difftrace_core.Memo
module Store = Difftrace_core.Store
module Archive = Difftrace_parlot.Archive
module Tracer = Difftrace_parlot.Tracer
module Fault = Difftrace_simulator.Fault
module Runtime = Difftrace_simulator.Runtime
module Lulesh = Difftrace_workloads.Lulesh
module Filter = Difftrace_filter.Filter
module Trace_set = Difftrace_trace.Trace_set
module Eventdb = Difftrace_eventdb.Eventdb
module Telemetry = Difftrace_obs.Telemetry

let fault = Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" }

(* {1 Workloads} *)

type shape = { np : int; level : Tracer.level; filter : string }

type workload = {
  name : string;
  shape : shape;
  mix : bool;
      (** false: the timed operations are cold compares, interleaved with
          a probe of the warm kinds; true: the drill-down mix *)
}

let lulesh_cold = { np = 64; level = Tracer.All_images; filter = "11.all" }

let workloads =
  [ { name = "lulesh-cold"; shape = lulesh_cold; mix = false };
    { name = "lulesh-wide";
      shape = { np = 128; level = Tracer.Main_image; filter = "11.mpiall" };
      mix = false };
    { name = "drilldown"; shape = lulesh_cold; mix = true } ]

(* the warm queries: one of every kind the drill-down mix draws *)
let queries =
  Oracle.
    [ Count { fn = "MPI_Wait"; thread = None };
      List { fn = "MPI_Send"; thread = "3"; limit = 20 };
      Sites { fn = "MPI_Wait"; thread = "1" };
      Loops { thread = "1" };
      Funcs { limit = 20 };
      Diverge ]

(* the first query on a freshly recorded run *)
let record_query = Oracle.Funcs { limit = 10 }

type kind = Compare | Query of Oracle.t | Reanalyze | Record

let kind_name = function
  | Compare -> "compare"
  | Query _ -> "query"
  | Reanalyze -> "reanalyze"
  | Record -> "record"

(* one drill-down deck: every query twice, two re-analyses and two
   writes, shuffled per deck by the seeded RNG, so every seed draws the
   same proportions. The 12:2:2 weights are an assumption, not measured
   from user sessions: they make queries the common case of a
   debugging loop. Only the per-kind medians are independent of them. *)
let deck =
  let qs = List.map (fun q -> Query q) queries in
  qs @ qs @ [ Reanalyze; Reanalyze; Record; Record ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* the cold workloads' probe of the warm kinds over the same set-up: a
   re-analysis, a write and a query in turn, the queries in list order,
   so every kind gets the same share of samples however early the run
   ends, and every seed draws the same queries *)
let probe_cycle = List.concat_map (fun q -> [ Reanalyze; Record; Query q ]) queries

(* {1 Files} *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let out_dir = "_perfbench"

(* {1 Set-up} *)

type env = {
  dir : string;
  config : Config.t;
  normal_dir : string;
  faulty_dir : string;
  store_dir : string;
  faulty : Runtime.outcome;  (** the pre-simulated outcome writes record *)
  session : Session.t;  (** long-lived, over the warm store *)
  reference : string;  (** Session.compare's report on in-memory traces *)
  ref_bscore : float;
  ref_suspects : (string * float) array;
  normal_events : int;
  faulty_events : int;
}

let session_ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Session.error_to_string e)

let archive dir = Session.Archive { dir; salvage = false }

(* simulate both runs, archive them, take the in-memory reference
   compare, then warm the store and the event-DB indexes of the
   long-lived session. Returns the normal run's traces for the oracles. *)
let setup ~traced ~seed w dir =
  let wrap name f = if traced then Spans.span name f else f () in
  let config =
    Config.default |> Config.with_filter (Filter.of_spec w.shape.filter)
  in
  let run fault =
    wrap "Lulesh.run" (fun () ->
        Lulesh.run ~np:w.shape.np ~seed ~level:w.shape.level ~fault ())
  in
  let normal = run Fault.No_fault in
  let faulty = run fault in
  let normal_dir = Filename.concat dir "normal"
  and faulty_dir = Filename.concat dir "faulty"
  and store_dir = Filename.concat dir "store" in
  List.iter
    (fun (d, (o : Runtime.outcome)) ->
      ignore (wrap "Archive.save" (fun () -> Archive.save ~dir:d o.Runtime.traces) : int))
    [ (normal_dir, normal); (faulty_dir, faulty) ];
  let reference =
    session_ok "reference compare"
      (Session.compare (Session.create ()) config
         { Session.cp_normal = Session.Traces normal.Runtime.traces;
           cp_faulty = Session.Traces faulty.Runtime.traces;
           cp_diffnlr = None })
  in
  let store =
    match Store.load ~dir:store_dir with
    | Ok st -> st
    | Error e -> failwith (Store.error_to_string e)
  in
  let session = Session.create ~store () in
  ignore
    (session_ok "store warm-up"
       (Session.analyze session config
          { Session.cp_normal = archive normal_dir;
            cp_faulty = archive faulty_dir;
            cp_diffnlr = None }));
  List.iter
    (fun d ->
      ignore
        (session_ok "index build"
           (Session.query session config
              { Session.qy_text = "threads"; qy_source = archive d; qy_against = None })))
    [ normal_dir; faulty_dir ];
  session_ok "store flush" (Session.flush session);
  ( { dir;
      config;
      normal_dir;
      faulty_dir;
      store_dir;
      faulty;
      session;
      reference = reference.Session.cp_output;
      ref_bscore = reference.Session.cp_bscore;
      ref_suspects = reference.Session.cp_suspects;
      normal_events = Trace_set.total_events normal.Runtime.traces;
      faulty_events = Trace_set.total_events faulty.Runtime.traces },
    normal.Runtime.traces )

(* {1 Oracles} *)

type expect = {
  answers : (Oracle.t * string) list;  (** direct-scan query answers *)
  analyzed : string;  (** the reference report without its ranking lines *)
  recorded : string;  (** the write query's answer over the faulty run *)
  digest : string;  (** Eventdb.digest of the recorded outcome *)
}

let expect env normal =
  let faulty = env.faulty.Runtime.traces in
  let ranking l =
    String.starts_with ~prefix:"top processes:" l
    || String.starts_with ~prefix:"top threads:" l
  in
  { answers = List.map (fun q -> (q, Oracle.expected q ~normal ~faulty)) queries;
    analyzed =
      String.split_on_char '\n' env.reference
      |> List.filter (fun l -> not (ranking l))
      |> String.concat "\n";
    recorded = Oracle.expected record_query ~normal:faulty ~faulty;
    digest = Eventdb.digest faulty }

(* {1 Operations} *)

type answer =
  | Compared of (Session.compare_response, Session.error) result
  | Answered of (Session.query_response, Session.error) result
  | Recorded of string * (Session.query_response, Session.error) result
      (** the write's directory, and its first query's answer *)

let pair env =
  { Session.cp_normal = archive env.normal_dir;
    cp_faulty = archive env.faulty_dir;
    cp_diffnlr = None }

let execute env k ~slot =
  match k with
  | Compare -> Compared (Session.compare (Session.create ()) env.config (pair env))
  | Reanalyze -> Compared (Session.analyze env.session env.config (pair env))
  | Query q ->
    Answered
      (Session.query env.session env.config
         { Session.qy_text = Oracle.text q;
           qy_source = archive env.normal_dir;
           qy_against =
             (if Oracle.needs_against q then Some (archive env.faulty_dir) else None) })
  | Record ->
    let wdir = Filename.concat env.dir (Printf.sprintf "write-%d" slot) in
    let ( let* ) = Result.bind in
    Recorded
      ( wdir,
        let* store =
          Result.map_error
            (fun e -> Session.Store_failed (Store.error_to_string e))
            (Store.load ~dir:(Filename.concat wdir "store"))
        in
        let ses = Session.create ~store () in
        let* _ =
          Session.record ses ~outcome:env.faulty
            { Session.rc_name = Some "recorded";
              rc_dir = Some (Filename.concat wdir "archive");
              rc_format = Archive.V2 }
        in
        let* answer =
          Session.query ses env.config
            { Session.qy_text = Oracle.text record_query;
              qy_source = Session.Run "recorded";
              qy_against = None }
        in
        let* () = Session.flush ses in
        Ok answer )

let reloaded_digest wdir =
  match Archive.load ~dir:(Filename.concat wdir "archive") () with
  | Ok l -> Eventdb.digest l.Archive.set
  | Error e -> Archive.error_to_string e

let check env ex k answer =
  let rank2 (r : Session.compare_response) =
    List.mem 2 (List.filteri (fun i _ -> i < 3) r.Session.cp_top_processes)
  in
  let expect_ cond why = if cond then Ok () else Error why in
  match (k, answer) with
  | _, (Compared (Error e) | Answered (Error e) | Recorded (_, Error e)) ->
    Error (Session.error_to_string e)
  | Compare, Compared (Ok r) ->
    if r.Session.cp_output <> env.reference then
      Error "report differs from the in-memory reference compare"
    else expect_ (rank2 r) "rank 2 is not among the top three processes"
  | Reanalyze, Compared (Ok r) ->
    if r.Session.cp_output <> ex.analyzed then
      Error "re-analysis report differs from the in-memory reference"
    else expect_ (rank2 r) "rank 2 is not among the top three processes"
  | Query q, Answered (Ok r) ->
    if r.Session.qy_output <> List.assoc q ex.answers then
      Error (Printf.sprintf "%S differs from the direct scan" (Oracle.text q))
    else expect_ r.Session.qy_warm (Printf.sprintf "%S was not warm" (Oracle.text q))
  | Record, Recorded (wdir, Ok r) ->
    if r.Session.qy_output <> ex.recorded then
      Error "first query on the recorded run differs from the direct scan"
    else if r.Session.qy_warm then Error "first query on the recorded run was warm"
    else
      expect_ (reloaded_digest wdir = ex.digest)
        "reloaded archive digest differs from the recorded outcome"
  | _ -> Error "answer of the wrong kind"

let events env = function
  | Compare | Reanalyze -> env.normal_events + env.faulty_events
  | Query q ->
    env.normal_events + if Oracle.needs_against q then env.faulty_events else 0
  | Record -> 2 * env.faulty_events (* written, then decoded on re-ingest *)

(* {1 Measurement} *)

type sample = { kind : kind; wall : float; alloc : float; events : int }

(* peak major heap: sampled at the end of every major cycle and after
   every operation, only while an operation is running *)
let heap_peak = ref 0
let sampling = ref false

let sample_heap () =
  if !sampling then heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words

let _alarm = Gc.create_alarm sample_heap
let attempted = ref 0
let failed = ref 0
let slot = ref 0

let fail why =
  incr failed;
  if !failed <= 5 then prerr_endline ("perfbench: FAILED: " ^ why)

let verdict = function Ok () -> () | Error why -> fail why

(* run, time and check one operation; cleanup is never timed *)
let timed env ex k =
  incr slot;
  incr attempted;
  let a0 = Gc.allocated_bytes () in
  let t0 = Spans.now () in
  sampling := true;
  let answer =
    match execute env k ~slot:!slot with
    | a -> a
    | exception e -> Compared (Error (Session.Run_failed (Printexc.to_string e)))
  in
  let wall = Spans.now () -. t0 in
  sample_heap ();
  sampling := false;
  let alloc = Gc.allocated_bytes () -. a0 in
  verdict (check env ex k answer);
  (match answer with Recorded (wdir, _) -> rm_rf wdir | _ -> ());
  { kind = k; wall; alloc; events = events env k }

(* linear-interpolation percentile of a non-empty list *)
let percentile p l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = float_of_int p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median l = percentile 50 l

(* the tail: the highest percentile with at least ten samples beyond
   it, never below the median; returns (percentile, value, beyond) *)
let tail walls =
  let beyond v = List.length (List.filter (fun x -> x > v) walls) in
  let rec go p =
    let v = percentile p walls in
    if p <= 50 || beyond v >= 10 then (p, v, beyond v) else go (p - 1)
  in
  go 99

let is_kind name s = kind_name s.kind = name
let mb bytes = bytes /. 1e6

(* {1 JSON} *)

type value = F of float * string | I of int * string

let print_result metrics =
  let field (name, v) =
    match v with
    | F (x, unit) ->
      let x = if Float.is_finite x then x else 0.0 in
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name x unit
    | I (x, unit) -> Printf.sprintf "%S: {\"value\": %d, \"unit\": %S}" name x unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map field metrics))

(* {1 Timed run} *)

let setups = 3

let timed_run w ~seed ~seconds ~dir =
  (* set up several times and report the median; keep the last *)
  let rec go i times =
    let d = Filename.concat dir (Printf.sprintf "setup-%d" i) in
    let t0 = Spans.now () in
    let env, normal = setup ~traced:false ~seed w d in
    let times = (Spans.now () -. t0) :: times in
    if i < setups then begin
      rm_rf d;
      go (i + 1) times
    end
    else (env, normal, times)
  in
  let env, normal, setup_times = go 1 [] in
  let ex = expect env normal in
  Gc.full_major ();
  let rng = Random.State.make [| seed |] in
  (* draw from a deck dealt anew whenever it runs out *)
  let drawer deal =
    let pending = ref [] in
    fun () ->
      if !pending = [] then pending := deal ();
      let k = List.hd !pending in
      pending := List.tl !pending;
      k
  in
  (* [next samples] picks the next operation from the samples so far *)
  let loop seconds next =
    let t0 = Spans.now () in
    let samples = ref [] in
    while !samples = [] || Spans.now () -. t0 < seconds do
      samples := timed env ex (next !samples) :: !samples
    done;
    (List.rev !samples, Spans.now () -. t0)
  in
  (* the cold workloads give half the time to compares and half to the
     probe, interleaved so that both see the same phases of a shared
     host *)
  let cold_next =
    let probe = drawer (fun () -> probe_cycle) in
    fun samples ->
      let spent compares =
        List.fold_left
          (fun acc s -> if (s.kind = Compare) = compares then acc +. s.wall else acc)
          0.0 samples
      in
      if spent true <= spent false then Compare else probe ()
  in
  (* warm-up, discarded: one operation of every kind the loop draws *)
  List.iter
    (fun k -> ignore (timed env ex k : sample))
    (if w.mix then [ Query Oracle.Diverge; Reanalyze; Record ] else [ Compare ]);
  heap_peak := 0;
  let next =
    if w.mix then
      let draw = drawer (fun () -> shuffle rng deck) in
      fun _ -> draw ()
    else cold_next
  in
  let all, elapsed = loop (float_of_int seconds) next in
  let peak = !heap_peak in
  let main = if w.mix then all else List.filter (fun s -> s.kind = Compare) all in
  let walls = List.map (fun s -> s.wall) main in
  let p50 name = median (List.map (fun s -> s.wall) (List.filter (is_kind name) all)) in
  let n = List.length main in
  let tail_p, tail_v, beyond = tail walls in
  let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 main in
  Printf.printf "workload %s, seed %d: %d timed operations in %.1f s (warm-up discarded)\n"
    w.name seed n elapsed;
  Printf.printf "setup_s: median of %d set-ups: %s\n" setups
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") setup_times));
  Printf.printf "latency_tail_s is p%d of %d samples (%d beyond it)\n" tail_p n beyond;
  List.iter
    (fun name ->
      let l = List.filter (is_kind name) all in
      if l <> [] then
        Printf.printf "  %-9s n=%-4d p50 %.4f s%s\n" name (List.length l)
          (median (List.map (fun s -> s.wall) l))
          (if w.mix || name = "compare" then "" else " (probe)"))
    [ "compare"; "query"; "reanalyze"; "record" ];
  Printf.printf "fail_ratio: %g (%d failed of %d attempted)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  [ ("setup_s", F (median setup_times, "s"));
    ("latency_p50_s", F (median walls, "s"));
    ("latency_tail_s", F (tail_v, "s"));
    ( "events_per_s",
      F (total (fun s -> float_of_int s.events) /. total (fun s -> s.wall), "1/s") );
    ("alloc_mb_per_op", F (mb (total (fun s -> s.alloc)) /. float_of_int n, "MB"));
    ("heap_peak_mb", F (mb (float_of_int (peak * (Sys.word_size / 8))), "MB"));
    ("query_p50_s", F (p50 "query", "s"));
    ("reanalyze_p50_s", F (p50 "reanalyze", "s"));
    ("record_p50_s", F (p50 "record", "s")) ]

(* {1 Traced run} *)

(* the public Telemetry counters read around every traced operation *)
let counters =
  List.map
    (fun n -> (n, Telemetry.Counter.make n))
    [ "parlot.events.decoded";
      "archive.chunks";
      "nlr.summaries";
      "jsm.jaccard_evals";
      "linkage.merges";
      "memo.hits";
      "memo.misses";
      "store.hits";
      "store.misses";
      "eventdb.builds";
      "eventdb.loads" ]

let read_counters () = List.map (fun (_, c) -> Telemetry.Counter.value c) counters

(* the operation re-composed from layer calls; returns the check of its
   answer against the session's, to run after the timed interval *)
let composed env ex k ~wdir =
  let parity (v : Composed.verdict) () =
    v.Composed.bscore = env.ref_bscore && v.Composed.suspects = env.ref_suspects
  in
  match k with
  | Compare ->
    parity
      (Composed.compare ~memo:(Memo.create ()) env.config ~normal_dir:env.normal_dir
         ~faulty_dir:env.faulty_dir)
  | Reanalyze ->
    parity
      (Composed.compare ~memo:(Session.memo env.session)
         ?store:(Session.store env.session) env.config ~normal_dir:env.normal_dir
         ~faulty_dir:env.faulty_dir)
  | Query q ->
    let answer =
      Composed.query
        ~edb_dir:(Filename.concat env.store_dir "eventdb")
        (Oracle.text q) ~source_dir:env.normal_dir
        ?against_dir:(if Oracle.needs_against q then Some env.faulty_dir else None)
        ()
    in
    fun () -> answer = List.assoc q ex.answers
  | Record ->
    let registered, answer =
      Composed.record env.faulty.Runtime.traces
        ~archive_dir:(Filename.concat wdir "archive")
        ~store_dir:(Filename.concat wdir "store")
        (Oracle.text record_query)
    in
    fun () -> answer = ex.recorded && Eventdb.digest registered = ex.digest

(* the composed operation run twice, with spans on (a new operation id)
   and with spans off, the order alternating from slot to slot so that
   neither twin always runs second on warm caches. Returns whether both
   answers were right, and the traced and untraced walls. *)
let composed_twins env ex k ~slot =
  let run traced =
    let wdir = Filename.concat env.dir (Printf.sprintf "traced-write-%d-%b" slot traced) in
    Spans.enabled := traced;
    let t0 = Spans.now () in
    let check =
      if traced then Spans.operation (kind_name k) (fun () -> composed env ex k ~wdir)
      else composed env ex k ~wdir
    in
    let wall = Spans.now () -. t0 in
    Spans.enabled := true;
    let ok = check () in
    rm_rf wdir;
    (ok, wall)
  in
  let (ok_on, on), (ok_off, off) =
    if slot mod 2 = 0 then
      let t = run true in
      (t, run false)
    else
      let u = run false in
      (run true, u)
  in
  (ok_on && ok_off, on, off)

let loudly fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      fail m)
    fmt

let time_layers =
  [ "parlot.load"; "parlot.save"; "filter.apply"; "trace.remap"; "nlr.summarize";
    "core.memo_key"; "core.memo_find"; "core.store_load"; "core.store_flush";
    "core.store_jsm"; "fca.attributes"; "fca.context"; "cluster.jsm";
    "cluster.linkage"; "cluster.bscore"; "diff.diffnlr"; "eventdb.digest";
    "eventdb.load"; "eventdb.eval"; "eventdb.build"; "eventdb.save";
    "eventdb.divergence"; "unattributed" ]

let alloc_layers = [ "parlot.load"; "nlr.summarize"; "cluster.linkage" ]

(* the most of an operation's wall time that may fall outside every
   layer span: ROADMAP's target of at least 95% attributed *)
let max_unattributed = 0.05

let traced_run w ~seed ~seconds ~dir =
  let env, normal =
    Spans.operation "setup" (fun () ->
        setup ~traced:true ~seed w (Filename.concat dir "setup"))
  in
  let setup_op = !Spans.current_op in
  let ex = expect env normal in
  let pass_ops =
    if w.mix then shuffle (Random.State.make [| seed |]) deck
    else [ Compare; Compare; Compare; Compare; Query Oracle.Diverge; Reanalyze; Record ]
  in
  Telemetry.enable ();
  let twin_walls = ref [] and op_kinds = Hashtbl.create 64 in
  let first_pass = ref None in
  let passes = ref 0 in
  let t0 = Spans.now () in
  while !passes < 2 || Spans.now () -. t0 < float_of_int seconds do
    incr passes;
    let v = Composed.volumes in
    v.events_in <- 0;
    v.events_kept <- 0;
    v.calls_in <- 0;
    v.elems_out <- 0;
    let counts =
      List.map
        (fun k ->
          let before = read_counters () in
          ignore (timed env ex k : sample);
          let delta = List.map2 ( - ) (read_counters ()) before in
          incr attempted;
          let ok, on, off = composed_twins env ex k ~slot:!slot in
          if not ok then loudly "traced %s differs from the session's answer" (kind_name k);
          twin_walls := (kind_name k, on, off) :: !twin_walls;
          Hashtbl.replace op_kinds !Spans.current_op (kind_name k);
          delta)
        pass_ops
    in
    let volumes = (v.events_in, v.events_kept, v.calls_in, v.elems_out) in
    match !first_pass with
    | None -> first_pass := Some (counts, volumes)
    | Some (c, vol) ->
      if c <> counts || vol <> volumes then
        loudly "pass %d counted different work than pass 1" !passes
  done;
  Telemetry.disable ();
  let counts, (events_in, events_kept, calls_in, elems_out) =
    Option.get !first_pass
  in
  (* layer self time per traced operation *)
  let ops = Hashtbl.fold (fun op kind acc -> (op, kind) :: acc) op_kinds [] in
  let nops = float_of_int (List.length ops) in
  let self_ns = Hashtbl.create 32 and self_alloc = Hashtbl.create 32 in
  let by_kind = Hashtbl.create 32 in
  let add tbl key x =
    Hashtbl.replace tbl key (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
  in
  let traced_walls = ref [] and worst = ref (0.0, 0) and nspans = ref 0 in
  List.iter
    (fun (op, kind) ->
      let spans = Spans.of_op op in
      let wall = Int64.to_float (Spans.duration (List.find Spans.is_root spans)) *. 1e-9 in
      traced_walls := (kind, wall) :: !traced_walls;
      nspans := !nspans + List.length spans;
      add by_kind (kind, "ops") 1.0;
      let unattributed = ref 0.0 in
      List.iter
        (fun ((s : Spans.span), ns, alloc) ->
          let layer = Composed.layer_of s.Spans.name in
          let secs = Int64.to_float ns *. 1e-9 in
          if layer = "unattributed" then unattributed := !unattributed +. secs;
          add self_ns layer secs;
          add self_alloc layer alloc;
          add by_kind (kind, layer) secs)
        (Spans.self_times spans);
      (* a layer call left without a span, or time spent between the
         spans, shows here *)
      let share = !unattributed /. wall in
      if share > fst !worst then worst := (share, op);
      if share > max_unattributed then
        loudly "operation %d (%s): %.1f%% of its wall time is in no layer span" op kind
          (100.0 *. share))
    ops;
  let get tbl key = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
  let simulator =
    List.fold_left
      (fun acc ((s : Spans.span), ns, _) ->
        if s.Spans.name = "Lulesh.run" then acc +. (Int64.to_float ns *. 1e-9) else acc)
      0.0
      (Spans.self_times (Spans.of_op setup_op))
  in
  let main_kind = if w.mix then None else Some "compare" in
  let on_off =
    List.filter_map
      (fun (kind, on, off) ->
        if main_kind = None || main_kind = Some kind then Some (on, off) else None)
      !twin_walls
  in
  let overhead = median (List.map fst on_off) -. median (List.map snd on_off) in
  let count name =
    List.fold_left
      (fun acc delta -> acc + List.assoc name (List.combine (List.map fst counters) delta))
      0 counts
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let memo_lookups = count "memo.hits" + count "memo.misses" in
  let store_lookups = count "store.hits" + count "store.misses" in
  (* the per-kind view: layer self time per operation of each kind *)
  let kinds = [ "compare"; "query"; "reanalyze"; "record" ] in
  Printf.printf "workload %s, seed %d: %d traced passes of %d operations\n" w.name seed
    !passes (List.length pass_ops);
  Printf.printf "%-20s%s\n" "self ms per op"
    (String.concat "" (List.map (Printf.sprintf "%12s") kinds));
  List.iter
    (fun layer ->
      Printf.printf "%-20s%s\n" layer
        (String.concat ""
           (List.map
              (fun kind ->
                let n = get by_kind (kind, "ops") in
                if n = 0.0 then Printf.sprintf "%12s" "-"
                else Printf.sprintf "%12.2f" (1e3 *. get by_kind (kind, layer) /. n))
              kinds)))
    time_layers;
  Printf.printf "unattributed: at most %.2f%% of an operation's wall time (operation %d)\n"
    (100.0 *. fst !worst) (snd !worst);
  Printf.printf
    "tracing overhead: %.4f s (median of %d %s operations composed with spans on, \
     minus with spans off; %d spans per operation)\n"
    overhead (List.length on_off)
    (Option.value ~default:"drill-down" main_kind)
    (!nspans / List.length ops);
  let spans_file =
    Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed)
  in
  Spans.write_jsonl spans_file;
  Printf.printf "spans written to %s\n" spans_file;
  List.map (fun l -> (l ^ "_s", F (get self_ns l /. nops, "s"))) time_layers
  @ [ ("simulator.run_s", F (simulator, "s"));
      ("op.wall_s", F (List.fold_left (fun acc (_, x) -> acc +. x) 0.0 !traced_walls /. nops, "s")) ]
  @ List.map (fun l -> (l ^ "_alloc_mb", F (mb (get self_alloc l) /. nops, "MB"))) alloc_layers
  @ [ ("parlot.events_decoded", I (count "parlot.events.decoded", "count"));
      ("parlot.archive_chunks", I (count "archive.chunks", "count"));
      ("filter.events_in", I (events_in, "count"));
      ("filter.kept_ratio", F (ratio events_kept events_in, "ratio"));
      ("nlr.summaries", I (count "nlr.summaries", "count"));
      ("nlr.calls_in", I (calls_in, "count"));
      ("nlr.reduction_ratio", F (ratio calls_in elems_out, "ratio"));
      ("core.memo_lookups", I (memo_lookups, "count"));
      ("core.memo_hit_ratio", F (ratio (count "memo.hits") memo_lookups, "ratio"));
      ("core.store_lookups", I (store_lookups, "count"));
      ("core.store_hit_ratio", F (ratio (count "store.hits") store_lookups, "ratio"));
      ("cluster.jaccard_evals", I (count "jsm.jaccard_evals", "count"));
      ("cluster.linkage_merges", I (count "linkage.merges", "count"));
      ("eventdb.builds", I (count "eventdb.builds", "count"));
      ("eventdb.loads", I (count "eventdb.loads", "count")) ]

(* {1 Main} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME lulesh-cold, lulesh-wide or drilldown");
      ("--seed", Arg.Set_int seed, "N simulator scheduler seed; also seeds the mix");
      ("--seconds", Arg.Set_int seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 1: the traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let dir =
    Filename.concat out_dir (Printf.sprintf "%s-%d" w.name (Unix.getpid ()))
  in
  at_exit (fun () -> rm_rf dir);
  (* an interrupted run still removes its work files *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let metrics =
    if !trace = 1 then traced_run w ~seed:!seed ~seconds:!seconds ~dir
    else timed_run w ~seed:!seed ~seconds:!seconds ~dir
  in
  print_result metrics;
  if !failed > 0 then exit 1
