// Test helper: a wire message's bytes, from its one encoder (encode_into).
#pragma once

#include <utility>

#include "common/serde.h"

namespace qrdtm::core {

template <class Msg>
Bytes encode(const Msg& msg) {
  Writer w;
  msg.encode_into(w);
  return std::move(w).take();
}

}  // namespace qrdtm::core
