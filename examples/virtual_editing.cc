// Virtual editing: composing new, presentable sequences from query answers
// — the application the paper motivates via [29] and supports through
// constructive rules ("to build new sequences from others", Section 7).
//
// The workflow: annotate an interview archive, query for every moment two
// people share the screen, cut a highlight reel from the answers, cap each
// cut for a trailer, and materialize the edit as a first-class interval
// object that later rules can query.
//
// Run: ./build/examples/virtual_editing

#include <iostream>

#include "src/common/logging.h"

#include "src/engine/query.h"
#include "src/video/annotator.h"
#include "src/video/virtual_editing.h"

using namespace vqldb;

int main() {
  VideoDatabase db;
  Annotator annotator(&db);

  // A 300-second interview programme.
  VQLDB_CHECK_OK(annotator.AddEntity("host", {{"role", Value::String("host")}})
                     .status());
  VQLDB_CHECK_OK(
      annotator.AddEntity("guest", {{"role", Value::String("guest")}})
          .status());
  VQLDB_CHECK_OK(
      annotator.AddEntity("band", {{"role", Value::String("music")}})
          .status());

  auto scene = [&](const char* symbol, double begin, double end,
                   std::vector<std::string> people, const char* subject) {
    VQLDB_CHECK_OK(annotator
                       .AnnotateScene(symbol,
                                      GeneralizedInterval::Single(begin, end),
                                      people, subject)
                       .status());
  };
  scene("opening", 0, 30, {"host"}, "monologue");
  scene("interview1", 30, 120, {"host", "guest"}, "interview");
  scene("musical", 120, 180, {"band"}, "performance");
  scene("interview2", 180, 260, {"host", "guest"}, "interview");
  scene("closing", 260, 300, {"host", "guest", "band"}, "farewell");

  QuerySession session(&db);

  // Find every scene where host and guest share the screen.
  VQLDB_CHECK_OK(session.AddRule(
      "shared(G) <- Interval(G), {host, guest} subset G.entities."));
  auto shared = session.Query("?- shared(G).");
  VQLDB_CHECK_OK(shared.status());
  std::cout << "scenes with host and guest together: " << shared->rows.size()
            << "\n";

  // Cut list from the answer set.
  auto reel = SequenceFromQueryColumn(db, *shared, 0);
  VQLDB_CHECK_OK(reel.status());
  std::cout << "full reel:   " << reel->ToString() << "  ("
            << reel->TotalDuration() << "s)\n";

  // Trailer: first 10 seconds of each cut.
  EditList trailer = ClampFragments(*reel, 10);
  std::cout << "trailer:     " << trailer.ToString() << "  ("
            << trailer.TotalDuration() << "s)\n";

  // Materialize the reel; it becomes part of the archive.
  auto reel_gi = MaterializeSequence(&db, "interview_reel", *reel,
                                     {shared->rows[0][0].oid_value()});
  VQLDB_CHECK_OK(reel_gi.status());

  // The same result, derived *inside* the language with a constructive
  // rule (Section 6.2's concatenate_Gintervals).
  VQLDB_CHECK_OK(session.AddRule(
      "reel(G1 ++ G2) <- Interval(G1), Interval(G2), "
      "{host, guest} subset G1.entities, {host, guest} subset G2.entities."));
  auto constructed = session.Query("?- reel(G).");
  VQLDB_CHECK_OK(constructed.status());
  std::cout << "\nconstructive rule produced " << constructed->rows.size()
            << " sequence objects; widest:\n";
  double best = -1;
  ObjectId best_id;
  for (const auto& row : constructed->rows) {
    IntervalSet d = *db.DurationOf(row[0].oid_value());
    if (d.Measure() > best) {
      best = d.Measure();
      best_id = row[0].oid_value();
    }
  }
  std::cout << "   " << db.DisplayName(best_id) << " = "
            << db.DurationOf(best_id)->ToString() << "\n";

  // Edited sequences are queryable like any other interval.
  VQLDB_CHECK_OK(session.AddRule(
      "covers_closing(G) <- Interval(G), "
      "(t >= 260 and t <= 300) => G.duration."));
  auto covers = session.Query("?- covers_closing(G).");
  VQLDB_CHECK_OK(covers.status());
  std::cout << "\nsequences covering the closing segment: ";
  for (const auto& row : covers->rows) {
    std::cout << db.DisplayName(row[0].oid_value()) << " ";
  }
  std::cout << "\n";
  return 0;
}
