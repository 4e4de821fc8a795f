(* End-to-end gate for the serving daemon, run from the repository root
   by `make daemon-check` (whose comment lists which check runs on which
   boot).  It spawns the built dpoaf_cli for every verb that talks to a
   daemon, so flag parsing and signal handling stay under test, and reads
   the JSON those verbs print or write through Dpoaf_util.Json.  [checks]
   is the script: the offline refine case, then boots A and B.

   Every wait is bounded: 60 s for the socket, 10 s for the TCP port
   announcement, 30 s for the drain after SIGTERM (then SIGKILL), 120 s
   for a client.  All files live in one temporary directory; on every
   exit the daemon and any background client are killed and the
   directory is removed.  A failure names the check, prints the current
   daemon's log and exits 1. *)

module Json = Dpoaf_util.Json
module P = Dpoaf_serve.Protocol

let cli = "_build/default/bin/dpoaf_cli.exe"

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt
let dir = Filename.temp_dir "dpoaf-daemon-gate" ""
let path name = Filename.concat dir name
let read_file f = In_channel.with_open_bin f In_channel.input_all
let lines s = String.split_on_char '\n' s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* the first line of [s] that [fmt] scans, passed to [k] *)
let find_line fmt k s =
  List.find_map (fun l -> Scanf.sscanf_opt l fmt k) (lines s)

(* ---------------- processes ---------------- *)

(* spawned and not yet reaped: killed on every exit path *)
let children = ref []

let spawn ~out ~err args =
  let open_out f = Unix.openfile f [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
  let o = open_out out in
  let e = if err = out then o else open_out err in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin o e
  in
  Unix.close o;
  if e != o then Unix.close e;
  children := pid :: !children;
  pid

(* the exit status once [pid] has exited; [None] if it still runs
   [timeout] seconds from now *)
let await pid timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        poll ()
    | 0, _ -> None
    | _, status ->
        children := List.filter (( <> ) pid) !children;
        Some status
  in
  poll ()

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s
  | Unix.WSIGNALED s ->
      let names =
        Sys.[ (sigpipe, "SIGPIPE"); (sigkill, "SIGKILL"); (sigsegv, "SIGSEGV") ]
      in
      Printf.sprintf "was killed by %s"
        (Option.value (List.assoc_opt s names)
           ~default:(Printf.sprintf "signal %d" s))

(* a fresh file name in the temporary directory *)
let fresh =
  let n = ref 0 in
  fun ext ->
    incr n;
    path (Printf.sprintf "f%d%s" !n ext)

(* [dpoaf_cli args] run to completion (within 120 s): status, stdout and
   stderr *)
let run_cli args =
  let base = fresh "" in
  let pid = spawn ~out:(base ^ ".out") ~err:(base ^ ".err") args in
  match await pid 120.0 with
  | None ->
      fail "`dpoaf_cli %s` still running after 120 s" (String.concat " " args)
  | Some status ->
      (status, read_file (base ^ ".out"), read_file (base ^ ".err"))

(* the stdout of [dpoaf_cli args], which must exit 0 *)
let cli_ok what args =
  match run_cli args with
  | Unix.WEXITED 0, out, _ -> out
  | status, out, err ->
      fail "%s: `dpoaf_cli %s` %s\n%s%s" what (String.concat " " args)
        (describe status) out err

(* ---------------- JSON ---------------- *)

let parse what s =
  match Json.parse (String.trim s) with
  | Ok j -> j
  | Error e -> fail "%s: not JSON (%s): %s" what e s

(* the value at a path of object members *)
let get what j keys =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> fail "%s: no %S member in %s" what k (Json.to_string j))
    j keys

let num what j keys =
  match Json.to_float (get what j keys) with
  | Some f -> f
  | None -> fail "%s: %s is not a number" what (String.concat "." keys)

let list what j keys =
  match Json.to_list (get what j keys) with
  | Some l -> l
  | None -> fail "%s: %s is not an array" what (String.concat "." keys)

(* a `loadgen --out` report: something completed and nothing failed *)
let check_burst what file =
  let j = parse what (read_file file) in
  if Json.member "schema" j <> Some (Json.Str "dpoaf-loadgen/1") then
    fail "%s: loadgen --out did not write a dpoaf-loadgen/1 report" what;
  if num what j [ "completed" ] <= 0.0 then
    fail "%s: expected completed > 0" what;
  List.iter
    (fun k ->
      let v = num what j [ k ] in
      if v <> 0.0 then fail "%s: expected %s = 0, got %g" what k v)
    [ "errors"; "protocol_errors" ]

(* ---------------- daemons ---------------- *)

type daemon = { name : string; pid : int; sock : string; log : string }

(* the daemon whose log a failure prints *)
let current = ref None

(* poll [ready] every 0.1 s for [timeout] s, failing if the daemon exits *)
let wait_for d timeout what ready =
  let deadline = Unix.gettimeofday () +. timeout in
  while not (ready ()) do
    (match await d.pid 0.0 with
    | Some st ->
        fail "daemon %s %s before it could %s" d.name (describe st) what
    | None -> ());
    if Unix.gettimeofday () > deadline then
      fail "daemon %s did not %s within %.0f s" d.name what timeout;
    Unix.sleepf 0.1
  done

let boot name args =
  let sock = path (name ^ ".sock") and log = path (name ^ ".log") in
  let pid = spawn ~out:log ~err:log ("serve" :: "--socket" :: sock :: args) in
  let d = { name; pid; sock; log } in
  current := Some d;
  wait_for d 60.0 "bind its socket" (fun () -> Sys.file_exists sock);
  d

let tcp_port d =
  let port () =
    find_line "tcp listener on 127.0.0.1:%d" Fun.id (read_file d.log)
  in
  wait_for d 10.0 "announce its TCP port" (fun () -> port () <> None);
  Option.get (port ())

let stop d =
  Unix.kill d.pid Sys.sigterm;
  (match await d.pid 30.0 with
  | None ->
      Unix.kill d.pid Sys.sigkill;
      fail "daemon %s did not drain within 30 s of SIGTERM (killed)" d.name
  | Some (Unix.WEXITED 0) -> ()
  | Some st -> fail "daemon %s %s on SIGTERM" d.name (describe st));
  if Sys.file_exists d.sock then
    fail "daemon %s left its socket file behind" d.name;
  if not (contains (read_file d.log) "daemon stopped") then
    fail "daemon %s did not log a graceful stop" d.name

let on_unix d = [ "--socket"; d.sock ]
let on_tcp port = [ "--tcp-port"; string_of_int port ]

(* one seeded burst, checked through its --out report *)
let burst what ep extra =
  let out = fresh ".json" in
  ignore
    (cli_ok what
       (("loadgen" :: ep) @ [ "--seed"; "5"; "--out"; out ] @ extra));
  check_burst what out

(* the seeded dump every boot and transport must reproduce byte for byte *)
let dump what ep =
  let file = fresh ".dump" in
  ignore
    (cli_ok what
       (("loadgen" :: ep)
       @ [ "--rate"; "80"; "--duration"; "1"; "--seed"; "5"; "--dump"; file ]));
  read_file file

(* ---------------- the checks ---------------- *)

(* `report --pref-store` validates the store and finds harvested pairs *)
let check_store what store =
  let report = cli_ok what [ "report"; "--pref-store"; store ] in
  if not (contains report "harvested pairs") then
    fail "%s: empty (no accepted repairs?)\n%s" what report

let offline_refine () =
  let store = path "offline-store.jsonl" in
  let out =
    cli_ok "offline refine"
      [ "refine"; "--domain"; "driving"; "--rounds"; "3"; "--store"; store ]
  in
  let improved, total =
    match find_line "refine summary: improved %d/%d" (fun a b -> (a, b)) out with
    | Some r -> r
    | None -> fail "offline refine: no `refine summary` line\n%s" out
  in
  if total = 0 then fail "offline refine: empty defect pool";
  if improved * 5 < total * 4 then
    fail "offline refine: only %d/%d defects improved (< 80%%)" improved total;
  check_store "offline store" store;
  Printf.sprintf "%d/%d repaired offline" improved total

(* stats and health over both transports while a background burst runs *)
let ops_mid_load d port =
  let bg_out = path "background.json" in
  let bg =
    spawn ~out:(path "background.txt") ~err:(path "background.txt")
      (("loadgen" :: on_unix d)
      @ [ "--rate"; "150"; "--duration"; "2"; "--seed"; "5"; "--out"; bg_out ])
  in
  Unix.sleepf 0.5;
  List.iter
    (fun (label, ep) ->
      let what = "stats over " ^ label in
      let j = parse what (cli_ok what ("stats" :: ep)) in
      ignore (num what j [ "stats"; "metrics"; "serve.completed" ]);
      ignore (num what j [ "stats"; "runtime"; "gc.heap_words" ]);
      let what = "health over " ^ label in
      let j = parse what (cli_ok what ("health" :: ep)) in
      ignore (num what j [ "health"; "queue_depth" ]);
      if get what j [ "health"; "draining" ] <> Json.Bool false then
        fail "%s: expected draining = false" what;
      let shards =
        List.map
          (fun s -> Json.to_str (get what s [ "shard" ]))
          (list what j [ "health"; "shards" ])
      in
      if shards <> [ Some "shard0"; Some "shard1" ] then
        fail "%s: expected rows for shard0 and shard1" what)
    [ ("Unix", on_unix d); ("TCP", on_tcp port) ];
  let prom =
    lines
      (cli_ok "stats --format prom"
         ("stats" :: on_unix d @ [ "--format"; "prom" ]))
  in
  if not (List.mem "# TYPE dpoaf_serve_latency histogram" prom) then
    fail "stats --format prom: no dpoaf_serve_latency histogram family";
  if not (List.exists (fun l -> contains l {|_bucket{le="+Inf"}|}) prom) then
    fail "stats --format prom: no +Inf bucket";
  (match run_cli ("stats" :: on_unix d @ [ "--format"; "yaml" ]) with
  | Unix.WEXITED 0, _, _ -> fail "stats --format yaml: accepted"
  | _, _, err ->
      if not (contains err "json" && contains err "prom") then
        fail "stats --format yaml: the error does not name json and prom\n%s"
          err);
  match await bg 120.0 with
  | Some (Unix.WEXITED 0) -> check_burst "background burst" bg_out
  | st ->
      fail "background burst: loadgen %s\n%s"
        (match st with
        | Some st -> describe st
        | None -> "still running after 120 s")
        (read_file (path "background.txt"))

let sweep d =
  let out = path "sweep.json" in
  let text =
    cli_ok "sweep"
      (("loadgen" :: on_unix d)
      @ [ "--sweep"; "40:40:200"; "--sweep-p99-ms"; "200"; "--duration"; "0.5";
          "--seed"; "5"; "--out"; out ])
  in
  let j = parse "sweep JSON" (read_file out) in
  if get "sweep JSON" j [ "mode" ] <> Json.Str "sweep" then
    fail "sweep JSON: mode is not \"sweep\"";
  ignore (num "sweep JSON" j [ "knee_offered_rps" ]);
  ignore (num "sweep JSON" j [ "max_rps_at_p99" ]);
  let levels = List.length (list "sweep JSON" j [ "levels" ]) in
  let printed =
    List.length
      (List.filter (String.starts_with ~prefix:"sweep level:") (lines text))
  in
  if levels = 0 || printed <> levels then
    fail "sweep: %d levels in the JSON, %d per-level lines printed" levels
      printed;
  if find_line "sweep: levels=%d" Fun.id text <> Some levels then
    fail "sweep: no `sweep: levels=%d` summary line" levels

let journal_report journal =
  let out = cli_ok "journal" [ "report"; "--journal"; journal ] in
  List.iter
    (fun ev ->
      if not (contains out ("| " ^ ev ^ " ")) then
        fail "journal: no %s events\n%s" ev out)
    [ "daemon.start"; "daemon.stop"; "serve.shard.up"; "serve.request";
      "serve.drain" ];
  match find_line "refine rounds: %d" Fun.id out with
  | Some n when n > 0 -> Printf.sprintf "%d refine rounds journaled" n
  | _ -> fail "journal: no refine rounds\n%s" out

(* a client that pipelines a burst and hangs up without reading *)
let hang_up d =
  let line i =
    P.request_to_string
      {
        P.id = Printf.sprintf "gone%d" i;
        kind =
          P.Verify
            { steps = [ "x" ]; scenario = None; domain = None; explain = false };
        deadline_ms = None;
      }
    ^ "\n"
  in
  let burst = String.concat "" (List.init 2000 line) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX d.sock);
     let rec send off =
       if off < String.length burst then
         send
           (off + Unix.write_substring fd burst off (String.length burst - off))
     in
     send 0
   with Unix.Unix_error (e, _, _) ->
     fail "disconnect: sending the burst failed: %s" (Unix.error_message e));
  Unix.close fd

let checks () =
  if not (Sys.file_exists cli) then fail "%s is not built" cli;
  let offline = offline_refine () in
  print_endline ("daemon-check: " ^ offline);
  let journal = path "journal.jsonl" and store = path "served-store.jsonl" in
  let a =
    boot "A"
      [ "--shards"; "2"; "--tcp-port"; "0"; "--jobs"; "1"; "--seed"; "17";
        "--journal"; journal; "--pref-store"; store ]
  in
  let port = tcp_port a in
  burst "default-mix burst" (on_unix a)
    [ "--rate"; "100"; "--duration"; "1" ];
  ops_mid_load a port;
  let reference = dump "Unix dump" (on_unix a) in
  if dump "TCP dump" (on_tcp port) <> reference then
    fail "the TCP dump differs from the Unix dump";
  sweep a;
  burst "refine-weighted burst" (on_unix a)
    [ "--rate"; "40"; "--duration"; "1";
      "--mix"; "generate=0.2,verify=0.3,refine=0.5" ];
  stop a;
  let rounds = journal_report journal in
  check_store "served store" store;
  print_endline "daemon-check: boot A (2 shards, Unix + TCP) OK";
  let b = boot "B" [ "--shards"; "1"; "--jobs"; "2"; "--seed"; "17" ] in
  if dump "1-shard dump" (on_unix b) <> reference then
    fail "the 1-shard, 2-worker dump differs from the 2-shard dump";
  hang_up b;
  ignore (cli_ok "health after a client hung up" ("health" :: on_unix b));
  stop b;
  Printf.printf
    "daemon-check: OK (%s; %s; dumps identical across transports, shards and \
     workers; a hung-up client left the daemon up)\n"
    offline rounds

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := [];
  Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  at_exit cleanup;
  let interrupted = Sys.Signal_handle (fun _ -> exit 2) in
  Sys.set_signal Sys.sigint interrupted;
  Sys.set_signal Sys.sigterm interrupted;
  (* handled rather than ignored: an ignored SIGPIPE would be inherited by
     the daemons and hide the fault the disconnect check looks for *)
  Sys.set_signal Sys.sigpipe (Sys.Signal_handle ignore);
  match checks () with
  | () -> ()
  | exception e ->
      prerr_endline
        ("daemon-check: FAIL: "
        ^ match e with Check_failed m -> m | e -> Printexc.to_string e);
      Option.iter
        (fun d ->
          if List.mem d.pid !children then
            Option.iter
              (fun st -> Printf.eprintf "(daemon %s %s)\n" d.name (describe st))
              (await d.pid 0.0);
          Printf.eprintf "---- daemon %s log ----\n%s" d.name (read_file d.log))
        !current;
      exit 1
