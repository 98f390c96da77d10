type t = { cfg : Cache_config.t; sets : int list array }

let create cfg = { cfg; sets = Array.make cfg.Cache_config.sets [] }
let config t = t.cfg

let access t line =
  let s = Cache_config.set_of_line t.cfg line in
  let ways = t.sets.(s) in
  let hit = List.mem line ways in
  let without = List.filter (fun l -> l <> line) ways in
  let trimmed =
    if List.length without >= t.cfg.Cache_config.assoc then
      List.filteri (fun i _ -> i < t.cfg.Cache_config.assoc - 1) without
    else without
  in
  t.sets.(s) <- line :: trimmed;
  hit

let probe t line =
  let s = Cache_config.set_of_line t.cfg line in
  List.mem line t.sets.(s)

let copy t = { cfg = t.cfg; sets = Array.copy t.sets }
let contents t set = t.sets.(set)
