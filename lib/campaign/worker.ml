module Runner = Sttc_experiments.Runner
module Metrics = Sttc_obs.Metrics
module Flow = Sttc_core.Flow

type outcome = { computed : int; restored : int; failed : int }

let kill_injection_env = "STTC_CAMPAIGN_KILL"

let kill_after ~shard =
  match Sys.getenv_opt kill_injection_env with
  | None -> None
  | Some spec -> (
      match String.split_on_char ':' spec with
      | [ s; n ] -> (
          match (int_of_string_opt s, int_of_string_opt n) with
          | Some s, Some n when s = shard && n >= 0 -> Some n
          | _ -> None)
      | _ -> None)

let run ?(allow_kill_injection = false) ~dir ~shard ~attempt () =
  match Manifest.load (Shard.manifest_path dir) with
  | Error e -> Error e
  | Ok m ->
      if shard < 0 || shard >= m.Manifest.shards then
        Error
          (Printf.sprintf "worker: shard %d out of range [0, %d)" shard
             m.Manifest.shards)
      else (
        Sttc_obs.Obs.enable ();
        let backend = Sttc_backend.Backend.find_exn m.Manifest.backend in
        let plan = Shard.assign m ~shard in
        let prior = Shard.load_checkpoint ~dir ~shard in
        let find_prior idx =
          List.find_opt (fun (r : Shard.row) -> r.index = idx) prior
        in
        let kill_at =
          if allow_kill_injection && attempt = 1 then kill_after ~shard
          else None
        in
        let beats = ref 0 in
        let bump () =
          incr beats;
          Sttc_obs.Export.write_text
            (Shard.heartbeat_path ~dir shard)
            (Printf.sprintf "%d.%d\n" attempt !beats)
        in
        bump ();
        let computed = ref 0 and restored = ref 0 in
        let rows = ref [] in
        List.iter
          (fun (r : Manifest.run) ->
            match find_prior r.index with
            | Some row ->
                incr restored;
                Metrics.incr "campaign.worker.restored_runs";
                rows := row :: !rows
            | None ->
                bump ();
                let result =
                  Runner.run_unit ?timeout_s:m.Manifest.timeout_s
                    ?fraction:r.config.fraction
                    ~hardening:
                      (if r.config.harden then Flow.hardened
                       else Flow.no_hardening)
                    ~backend ~seed:r.seed ~benchmark:r.circuit r.algorithm
                in
                rows := Shard.of_result r result :: !rows;
                incr computed;
                Metrics.incr "campaign.worker.runs";
                Shard.save_checkpoint ~dir ~shard (List.rev !rows);
                bump ();
                match kill_at with
                | Some n when !computed >= n ->
                    (* deterministic mid-shard crash for the CI gate *)
                    Unix.kill (Unix.getpid ()) Sys.sigkill
                | _ -> ())
          plan;
        let rows = List.rev !rows in
        Shard.save_result ~dir ~shard rows;
        Sttc_obs.Export.write_file
          (Shard.metrics_path ~dir shard)
          (Sttc_obs.Export.metrics_json_of_snapshot (Metrics.snapshot ()));
        let failed =
          List.length
            (List.filter
               (fun (r : Shard.row) ->
                 match r.outcome with Shard.Failed _ -> true | Shard.Done _ -> false)
               rows)
        in
        Ok { computed = !computed; restored = !restored; failed })
