(* Child processes (one-shot fgc runs and fgc serve daemons) and what
   the spine reads about them from outside: CPU time, peak memory, and
   how much CPU time the host took from the machine.  Every child is
   reaped; a child still alive when the spine exits (on an exception or
   a signal, say) is terminated and waited for. *)

module Client = Fg_server.Client

(* (exit code or negated signal number, peak RSS in KiB, user + system
   CPU time in microseconds) *)
external wait4 : int -> int * int * int = "spine_wait4"

let now () = Unix.gettimeofday ()

(* ---------------------------------------------------------------- *)
(* CPU time                                                          *)

(* The end-to-end costs are CPU time, not wall time.  The host lends
   this machine's CPUs to other guests ("steal" in /proc/stat) in
   episodes that last minutes: in one, 15-30% of the CPU time was
   stolen, wall times rose by a third (two-domain batches more than
   doubled) and CPU times by a sixth.  The kernel keeps stolen time out
   of a task's CPU time, so CPU time is what stays comparable between
   runs.  Wall times are recorded beside it. *)

(* CPU seconds used by this process and its reaped children. *)
let own_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let task_dir pid = Printf.sprintf "/proc/%d/task" pid
let tasks pid = Array.to_list (Sys.readdir (task_dir pid))

(* CPU ms of one thread of [pid]: the first field of its schedstat, in
   ns.  0 once the thread has exited. *)
let thread_cpu_ms pid tid =
  let path = Filename.concat (Filename.concat (task_dir pid) tid) "schedstat" in
  match In_channel.with_open_text path In_channel.input_line with
  | Some line -> float_of_string (List.hd (String.split_on_char ' ' line)) /. 1e6
  | None | (exception Sys_error _) -> 0.

(* CPU ms of the live threads of [pid] (a thread that exited takes its
   time with it, so readings are taken while the threads that did the
   work are alive). *)
let cpu_ms pid = List.fold_left (fun acc tid -> acc +. thread_cpu_ms pid tid) 0. (tasks pid)

(* The peak resident set of [pid] so far, in KiB. *)
let hwm_kb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_lines
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
         else None)
  |> Option.value ~default:0

(* The stolen and the total ticks of /proc/stat's aggregate cpu line. *)
let steal_mark () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let ticks = List.map int_of_string fields in
          (List.nth ticks 7, List.fold_left ( + ) 0 ticks)
      | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

(* The share of the machine's CPU time the host took since [mark]. *)
let steal_share (s0, t0) =
  let s1, t1 = steal_mark () in
  float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0))

(* A machine left idle for a few seconds ran the next second or two of
   work at about half speed: serve_corpus set-ups took 0.21 s instead
   of 0.09 s after a pause, and were back to 0.09 s after two seconds of
   load on both cores.  Keeping every core busy for [seconds] first
   makes each run start on a machine that is already up to speed. *)
let spin seconds =
  let until = now () +. seconds in
  let busy () = while now () < until do () done in
  let others = List.init (Domain.recommended_domain_count () - 1) (fun _ -> Domain.spawn busy) in
  busy ();
  List.iter Domain.join others

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

(* Kill and reap every child still running.  SIGKILL, not SIGTERM: a
   daemon that stopped answering may never finish the graceful drain
   SIGTERM asks for, and the reap would wait for it. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    !live;
  live := []

let () = at_exit kill_all

type outcome = {
  out : string;  (** everything the child wrote to stdout *)
  code : int;  (** exit code, or the negated signal number *)
  maxrss_kb : int;  (** the child's peak resident set *)
  ms : float;  (** spawn to reap *)
  cpu_ms : float;  (** the child's user + system CPU time *)
}

(* A child still running after this many seconds is killed: at the seed
   commit an [fgc batch] round on two domains, which takes a fifth of a
   second, once spun for minutes. *)
let child_timeout = 10.

(* Run [prog args] to completion or [timeout] seconds: stdout captured,
   stdin on /dev/null, stderr into [err_file] if given and on /dev/null
   otherwise.  A killed child reports code -9. *)
let run ?(timeout = child_timeout) ?err_file prog args =
  let dn = Lazy.force devnull in
  let err =
    match err_file with
    | Some f -> Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
    | None -> dn
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) dn w err in
  live := pid :: !live;
  Unix.close w;
  if err != dn then Unix.close err;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = t0 +. timeout in
  let rec drain () =
    match Unix.select [ r ] [] [] (Float.max 0. (deadline -. now ())) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    | [], _, _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    | _ -> (
        match Unix.read r chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ())
  in
  drain ();
  Unix.close r;
  let code, maxrss_kb, cpu_us = wait4 pid in
  forget pid;
  {
    out = Buffer.contents buf;
    code;
    maxrss_kb;
    ms = (now () -. t0) *. 1000.;
    cpu_ms = float_of_int cpu_us /. 1000.;
  }

(* ---------------------------------------------------------------- *)
(* Daemons                                                           *)

type daemon = { pid : int; socket : string }

(* Start [fgc serve --socket socket] with default flags and return
   once it has answered a request.  The answer also means the daemon
   has started every thread it keeps (worker domains, the systhreads'
   tick thread), so a later connection adds exactly one: its reader. *)
let start_daemon ~fgc ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let dn = Lazy.force devnull in
  let pid =
    Unix.create_process fgc [| fgc; "serve"; "--socket"; socket |] dn dn dn
  in
  live := pid :: !live;
  let deadline = now () +. 10. in
  let rec wait_ready () =
    match Client.connect ~rcv_timeout:10. (`Unix socket) with
    | c ->
        ignore (Client.stats c);
        Client.close c
    | exception Client.Client_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            forget pid;
            failwith "fgc serve exited during start-up");
        if now () > deadline then failwith "fgc serve never bound its socket";
        Unix.sleepf 0.002;
        wait_ready ()
  in
  wait_ready ();
  { pid; socket }

(* A daemon that stops answering fails the run within 10 s instead of
   hanging it. *)
let connect d = Client.connect ~rcv_timeout:10. (`Unix d.socket)

(* Connect, and find the daemon thread that serves the connection:
   each connection gets a reader thread of its own, which is where the
   workspace requests run. *)
let connect_with_thread d =
  let before = tasks d.pid in
  let c = connect d in
  let deadline = now () +. 10. in
  let rec reader () =
    match List.filter (fun t -> not (List.mem t before)) (tasks d.pid) with
    | [ tid ] -> tid
    | fresh ->
        if now () > deadline then
          failwith (Printf.sprintf "%d new daemon threads for one connection" (List.length fresh));
        Unix.sleepf 0.002;
        reader ()
  in
  (c, reader ())

(* Ask the daemon to drain and exit.  A daemon that does not exit
   within 10 s is killed. *)
let stop_daemon d =
  (try
     let c = connect d in
     ignore (Client.shutdown c);
     Client.close c
   with Client.Client_error _ | Unix.Unix_error _ ->
     (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let reaped = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let until = now () +. 10. in
        while (not (Atomic.get reaped)) && now () < until do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get reaped) then
          try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ())
      ()
  in
  ignore (wait4 d.pid);
  Atomic.set reaped true;
  Thread.join watchdog;
  forget d.pid;
  try Sys.remove d.socket with Sys_error _ -> ()
