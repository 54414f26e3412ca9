(** The scale site: a minimal three-level site over {!Wrappers.Synth}'s
    scale corpus, built to materialize 100k–1M pages.

    The paper's sites top out around a thousand pages; the render pool
    targets two orders of magnitude more.  This site keeps the per-page
    work small and uniform — a root index, one page per group, one page
    per item — so builds are render-bound and the pool's behaviour
    (speedup, per-domain balance, streaming memory) is what a
    measurement sees, not template complexity. *)

let data ?(items = 100_000) ?(groups = 100) ?(seed = 5) () =
  Wrappers.Synth.scale_graph ~seed ~groups ~items ()

let site_query =
  {|INPUT SCALE
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       GroupPage(g) -> "Item" -> ItemPage(i),
       ItemPage(i) -> "Group" -> GroupPage(g),
       Root() -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  // Copy every item attribute onto its page
  { WHERE i -> l -> v
    LINK ItemPage(i) -> l -> v }
}
OUTPUT SCALESITE
|}

let root_template =
  {|<h1>Scale corpus</h1>
<SFMTLIST @Group ORDER=ascend KEY=Name>
|}

let group_template =
  {|<h1><SFMT @Name></h1>
<SFMTLIST @Item ORDER=ascend KEY=title>
|}

let item_template =
  {|<h1><SFMT @title></h1>
<SIF @body != NULL><p><SFMT @body></p></SIF>
<SIF @tag != NULL><p><i><SFMT @tag></i></p></SIF>
<p><SFMT @Group LINK="Up"></p>
|}

let templates : Template.Generator.template_set =
  {
    Template.Generator.by_object = [];
    by_collection =
      [
        ("Roots", root_template);
        ("GroupPages", group_template);
        ("ItemPages", item_template);
      ];
    named = [];
  }

let definition =
  Strudel.Site.define ~name:"SCALESITE" ~root_family:"Root" ~templates
    [ ("site", site_query) ]

(** [items + groups + 1] pages. *)
let build ?items ?groups ?seed () =
  Strudel.Site.build ~data:(data ?items ?groups ?seed ()) definition
