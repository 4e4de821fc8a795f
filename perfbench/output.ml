(* Where a traced run leaves its Chrome/Perfetto trace file. *)

let dir = "perfbench-out"

let path workload =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (workload ^ "-trace.json")
