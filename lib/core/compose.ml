type ('a, 'b) layered = { base : 'a; overlay : 'b }

let base_config cfg = Array.map (fun s -> s.base) cfg

let collateral ~name ~base ~overlay_domain ~overlay_actions ~overlay_equal ~overlay_pp
    ?(overlay_randomized = false) () =
  let lift_base_action (a : 'a Protocol.action) : ('a, 'b) layered Protocol.action =
    {
      Protocol.label = a.Protocol.label;
      guard = (fun cfg p -> a.Protocol.guard (base_config cfg) p);
      result =
        (fun cfg p ->
          List.map
            (fun (s, w) -> ({ base = s; overlay = cfg.(p).overlay }, w))
            (a.Protocol.result (base_config cfg) p));
    }
  in
  let base_enabled cfg p = Protocol.is_enabled base (base_config cfg) p in
  let guard_overlay (a : ('a, 'b) layered Protocol.action) =
    {
      a with
      Protocol.guard = (fun cfg p -> (not (base_enabled cfg p)) && a.Protocol.guard cfg p);
      result =
        (fun cfg p ->
          (* Write protection: whatever the overlay statement returns,
             the base component stays put. *)
          List.map (fun (s, w) -> ({ s with base = cfg.(p).base }, w)) (a.Protocol.result cfg p));
    }
  in
  {
    Protocol.name;
    graph = base.Protocol.graph;
    domain =
      (fun p ->
        List.concat_map
          (fun b -> List.map (fun o -> { base = b; overlay = o }) (overlay_domain p))
          (base.Protocol.domain p));
    actions =
      List.map lift_base_action base.Protocol.actions
      @ List.map guard_overlay overlay_actions;
    equal =
      (fun s1 s2 -> base.Protocol.equal s1.base s2.base && overlay_equal s1.overlay s2.overlay);
    pp =
      (fun fmt s ->
        Format.fprintf fmt "%a/%a" base.Protocol.pp s.base overlay_pp s.overlay);
    randomized = base.Protocol.randomized || overlay_randomized;
  }

let lift_base_spec spec =
  let projected = Spec.project (fun s -> s.base) spec in
  let step_ok =
    Option.map
      (fun ok before after ->
        let b = base_config before and a = base_config after in
        b = a || ok b a)
      spec.Spec.step_ok
  in
  { projected with Spec.step_ok }
