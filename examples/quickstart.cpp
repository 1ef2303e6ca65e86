// Quickstart: the 60-second tour of the Blaeu API.
//
// 1. Write a small CSV and import it through the column store.
// 2. Detect themes (vertical clustering).
// 3. Build a data map (horizontal clustering + decision-tree description).
// 4. Zoom into a region and print the implicit SQL query.
//
// Run:  ./quickstart

#include <cstdio>
#include <fstream>

#include "core/explorer.h"
#include "core/render.h"
#include "monet/csv.h"
#include "workloads/hollywood.h"

using namespace blaeu;

int main() {
  // --- 1. A CSV lands on disk (here: the synthetic Hollywood table). ------
  auto data = workloads::MakeHollywood();
  const char* path = "/tmp/blaeu_quickstart_movies.csv";
  {
    std::ofstream out(path);
    Status st = monet::WriteCsv(*data.table, out);
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // --- 2. Import and open an exploration session. -------------------------
  core::SessionOptions options;
  options.map.sample_size = 900;  // tiny table: no sampling needed
  core::Explorer explorer(options);
  if (Status st = explorer.LoadCsv(path, "movies"); !st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto session_or = explorer.OpenSession("movies");
  if (!session_or.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  core::Session* session = *session_or;

  // --- 3. Themes: groups of mutually dependent columns (Figure 1a). -------
  std::printf("%s\n", core::RenderThemeList(session->themes()).c_str());

  // --- 4. The data map of the best theme (Figure 1b). ---------------------
  std::printf("%s\n", core::RenderMap(session->current().map).c_str());
  std::printf("%s\n",
              core::RenderTreemapStrip(session->current().map).c_str());

  // --- 5. Zoom into the largest leaf region and show the implicit SQL. ----
  int biggest = -1;
  size_t best = 0;
  for (int leaf : session->current().map.LeafIds()) {
    size_t count = session->current().map.region(leaf).tuple_count;
    if (count > best) {
      best = count;
      biggest = leaf;
    }
  }
  if (biggest >= 0 && session->Zoom(biggest).ok()) {
    std::printf("After zoom into region %d:\n%s\n", biggest,
                core::RenderMap(session->current().map).c_str());
    std::printf("Implicit query:\n  %s\n\n",
                session->CurrentQuery().ToSql().c_str());
  }

  // --- 6. Everything is reversible. ----------------------------------------
  while (session->history_size() > 1) {
    if (!session->Rollback().ok()) break;
  }
  std::printf("%s\n", core::RenderBreadcrumbs(*session).c_str());
  return 0;
}
