type t = { id : string; text : string }

let defaults =
  [
    {
      id = "cfg-files-only";
      text =
        "Generate the contents of the .cfg configuration files only. Do not \
         generate interactive CLI commands, and do not use the keywords 'exit', \
         'end', 'configure terminal', 'ip routing', 'write', or 'conf t' anywhere \
         in the configuration.";
    };
    {
      id = "community-list-matching";
      text =
        "To match against a community in a route-map, first declare an ip \
         community-list that contains the community, and in the route-map match \
         using only that list. Never write a literal community such as '100:1' \
         directly in a 'match community' statement.";
    };
    {
      id = "additive-community";
      text =
        "When adding a community to a route with 'set community', always use the \
         'additive' keyword; without it the statement replaces every community \
         already present on the route.";
    };
  ]

let ids l = List.map (fun i -> i.id) l
let render l = String.concat "\n\n" (List.map (fun i -> i.text) l)
