#include "core/task_columns.h"

namespace lumos::core {

ColumnTaskSource::ColumnTaskSource(std::shared_ptr<trace::TracePools> pools)
    : events_(std::move(pools)) {}

ColumnTaskSource::ColumnTaskSource(trace::EventTable events,
                                   io::Column<std::int32_t> rank,
                                   io::Column<std::uint8_t> gpu,
                                   io::Column<std::int64_t> lane)
    : events_(std::move(events)),
      rank_(std::move(rank)),
      gpu_(std::move(gpu)),
      lane_(std::move(lane)) {}

std::vector<Task> ColumnTaskSource::materialize() const {
  std::vector<Task> tasks(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    Task& t = tasks[i];
    t.id = static_cast<TaskId>(i);
    t.processor = processor(i);
    t.event = events_.materialize(i);
  }
  return tasks;
}

void ColumnTaskSource::push(const Processor& processor,
                            const trace::EventTable::Row& row) {
  events_.push_row(row);
  rank_.push_back(processor.rank);
  gpu_.push_back(processor.gpu ? 1 : 0);
  lane_.push_back(processor.lane);
}

void ColumnTaskSource::append(const trace::EventTable& events,
                              std::span<const std::uint32_t> order) {
  events_.append_rows(events, order);
  for (const std::uint32_t i : order) {
    rank_.push_back(events.pid(i));
    gpu_.push_back(events.is_gpu(i) ? 1 : 0);
    lane_.push_back(events.tid(i));
  }
}

void ColumnTaskSource::reserve(std::size_t n) {
  events_.reserve(n);
  rank_.reserve(n);
  gpu_.reserve(n);
  lane_.reserve(n);
}

}  // namespace lumos::core
