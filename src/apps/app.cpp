#include "apps/app.h"

#include "apps/bank.h"
#include "apps/bst.h"
#include "apps/hashmap.h"
#include "apps/rbtree.h"
#include "apps/skiplist.h"
#include "apps/vacation.h"
#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::apps {

I64Value i64_value(std::int64_t v) {
  I64Value w;
  w.i64(v);
  return w;
}

Bytes enc_i64(std::int64_t v) { return i64_value(v).to_bytes(); }

std::int64_t dec_i64(std::span<const std::uint8_t> b) {
  Reader r(b);
  return r.i64();
}

std::unique_ptr<App> make_app(const std::string& name) {
  if (name == "bank") return std::make_unique<BankApp>();
  if (name == "hashmap") return std::make_unique<HashmapApp>();
  if (name == "slist") return std::make_unique<SkipListApp>();
  if (name == "rbtree") return std::make_unique<RbTreeApp>();
  if (name == "bst") return std::make_unique<BstApp>();
  if (name == "vacation") return std::make_unique<VacationApp>();
  QRDTM_CHECK_MSG(false, "unknown app: " + name);
  return nullptr;
}

std::vector<std::string> app_names() {
  // The paper's reporting order (Fig. 5-8); bst is Fig. 10 only.
  return {"bank", "hashmap", "slist", "rbtree", "vacation", "bst"};
}

}  // namespace qrdtm::apps
